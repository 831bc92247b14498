package obs

import "sort"

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

// Registry holds the named counters of one model run. Names are
// conventionally "subsystem.metric" ("cache.l1_misses",
// "tcp.window_stalls"). A nil *Registry hands out nil handles, keeping the
// disabled path allocation-free. Registry is not safe for concurrent use;
// parallel harness code keeps one per run, and each run carries its own
// snapshot.
type Registry struct {
	counters map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
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

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value float64
}

// Snapshot is an immutable, name-sorted copy of a registry's state —
// the unit of comparison for the determinism tests and of diffing for
// per-experiment metric deltas.
type Snapshot struct {
	Counters []CounterValue
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
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
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
