package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is one monotonically growing named metric. A nil *Counter (from
// a nil Registry, or an unattached subsystem) ignores every update with no
// allocation, so models keep counter handles unconditionally.
type Counter struct {
	v float64
}

// Add grows the counter by v.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.v += v
}

// Distribution summarises a stream of observations: count, sum, min and
// max. Like Counter, a nil *Distribution ignores updates.
type Distribution struct {
	count    uint64
	sum      float64
	min, max float64
}

// Observe records one value.
func (d *Distribution) Observe(v float64) {
	if d == nil {
		return
	}
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if d.count == 0 || v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
}

// Registry holds the named counters and distributions of one model run.
// Names are conventionally "subsystem.metric" ("cache.l1_misses",
// "tcp.window_stalls"). A nil *Registry hands out nil handles, keeping the
// disabled path allocation-free. Registry is not safe for concurrent use;
// parallel harness code keeps one per task and merges snapshots.
type Registry struct {
	counters map[string]*Counter
	dists    map[string]*Distribution
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		dists:    make(map[string]*Distribution),
	}
}

// Counter registers (or finds) a counter by name.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	if c, ok := g.counters[name]; ok {
		return c
	}
	c := &Counter{}
	g.counters[name] = c
	return c
}

// Distribution registers (or finds) a distribution by name.
func (g *Registry) Distribution(name string) *Distribution {
	if g == nil {
		return nil
	}
	if d, ok := g.dists[name]; ok {
		return d
	}
	d := &Distribution{}
	g.dists[name] = d
	return d
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value float64
}

// DistValue is one distribution in a snapshot.
type DistValue struct {
	Name     string
	Count    uint64
	Sum      float64
	Min, Max float64
}

// Snapshot is an immutable, name-sorted copy of a registry's state —
// the unit of comparison for the determinism tests and of diffing for
// per-experiment metric deltas.
type Snapshot struct {
	Counters []CounterValue
	Dists    []DistValue
}

// Snapshot captures the registry, sorted by name. A nil registry yields
// an empty snapshot.
func (g *Registry) Snapshot() Snapshot {
	var s Snapshot
	if g == nil {
		return s
	}
	for name, c := range g.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.v})
	}
	for name, d := range g.dists {
		s.Dists = append(s.Dists, DistValue{Name: name, Count: d.count, Sum: d.sum, Min: d.min, Max: d.max})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Dists, func(i, j int) bool { return s.Dists[i].Name < s.Dists[j].Name })
	return s
}

// Get returns the value of a named counter and whether it exists.
func (s Snapshot) Get(name string) (float64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// ExcludePrefix returns the snapshot without metrics whose name starts
// with the prefix. The determinism tests use it to drop the harness's
// wall-clock self-observability ("runner.") before comparing.
func (s Snapshot) ExcludePrefix(prefix string) Snapshot {
	var out Snapshot
	for _, c := range s.Counters {
		if !strings.HasPrefix(c.Name, prefix) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, d := range s.Dists {
		if !strings.HasPrefix(d.Name, prefix) {
			out.Dists = append(out.Dists, d)
		}
	}
	return out
}

// String renders the snapshot one metric per line, for debugging and
// golden output.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%s %v\n", c.Name, c.Value)
	}
	for _, d := range s.Dists {
		fmt.Fprintf(&b, "%s count=%d sum=%v min=%v max=%v\n", d.Name, d.Count, d.Sum, d.Min, d.Max)
	}
	return b.String()
}

// MergeSnapshots combines per-task snapshots in the given (deterministic)
// order: counter values add, distributions combine. Because parts arrive
// in task order — never completion order — the float accumulation order
// is schedule-independent, which keeps merged snapshots bit-identical at
// every worker count.
func MergeSnapshots(parts ...Snapshot) Snapshot {
	counters := make(map[string]float64)
	var corder []string
	dists := make(map[string]DistValue)
	var dorder []string
	for _, p := range parts {
		for _, c := range p.Counters {
			if _, ok := counters[c.Name]; !ok {
				corder = append(corder, c.Name)
			}
			counters[c.Name] += c.Value
		}
		for _, d := range p.Dists {
			prev, ok := dists[d.Name]
			if !ok {
				dorder = append(dorder, d.Name)
				dists[d.Name] = d
				continue
			}
			if d.Count > 0 {
				if prev.Count == 0 || d.Min < prev.Min {
					prev.Min = d.Min
				}
				if prev.Count == 0 || d.Max > prev.Max {
					prev.Max = d.Max
				}
				prev.Count += d.Count
				prev.Sum += d.Sum
				dists[d.Name] = prev
			}
		}
	}
	var out Snapshot
	sort.Strings(corder)
	for _, name := range corder {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: counters[name]})
	}
	sort.Strings(dorder)
	for _, name := range dorder {
		out.Dists = append(out.Dists, dists[name])
	}
	return out
}
