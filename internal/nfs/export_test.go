package nfs

// Add folds another mount's counters into s, field by field. Summed over
// mounts sharing one fault-plan RNG fork, the Stats reproduce the shared
// injector's totals exactly (each drop is attributed to exactly one
// mount).
func (s *Stats) Add(o Stats) {
	s.RPCs += o.RPCs
	s.ReadRPCs += o.ReadRPCs
	s.WriteRPCs += o.WriteRPCs
	s.LookupRPCs += o.LookupRPCs
	s.MetaRPCs += o.MetaRPCs
	s.BytesToWire += o.BytesToWire
	s.BytesFromWire += o.BytesFromWire
	s.CacheReads += o.CacheReads
	s.Retransmits += o.Retransmits
}
