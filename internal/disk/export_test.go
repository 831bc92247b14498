package disk

import "repro/internal/sim"

// AvgRandomAccess estimates the expected cost of a random single-block
// access: average seek, half a rotation, one block transfer, and the
// controller overhead. The paper measured ~14 ms for this on its disks.
func (d *Disk) AvgRandomAccess(nbytes int) sim.Duration {
	return d.geom.AvgSeek + d.rotation()/2 +
		sim.Duration(float64(nbytes)/(d.geom.TransferMBs*1e6)*float64(sim.Second)) +
		d.geom.ControllerOverhead
}
