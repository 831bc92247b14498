package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The JSON form of a Snapshot is the persistence format of the baseline
// harness (BENCH_baseline.json) and a convenient interchange format on
// its own. It is an object holding one name-keyed object:
//
//	{"counters":{"fs.phase_us.vfs":7078.5,...}}
//
// Keys are emitted in sorted order (the snapshot's own invariant), and
// float64 values round-trip exactly: encoding/json renders the shortest
// representation that re-parses to the same bits, so
// Marshal → Unmarshal → Marshal is byte-stable and Equal-preserving.
// Files written when snapshots also held distributions carry an empty
// "dists" object beside the counters; decoding ignores it.

// MarshalJSON renders the snapshot with sorted keys. A zero snapshot
// marshals as {"counters":{}}.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	buf := []byte(`{"counters":{`)
	for i, c := range s.Counters {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendQuoteJSON(buf, c.Name)
		buf = append(buf, ':')
		v, err := json.Marshal(c.Value)
		if err != nil {
			return nil, fmt.Errorf("obs: counter %s: %w", c.Name, err)
		}
		buf = append(buf, v...)
	}
	return append(buf, `}}`...), nil
}

// UnmarshalJSON parses the MarshalJSON form back into a sorted snapshot.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var wire struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	out := Snapshot{}
	for name, v := range wire.Counters {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: v})
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	*s = out
	return nil
}
