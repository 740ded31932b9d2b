// Package metrics provides tiny counter/gauge instrumentation used by the
// NAT engine, the DHT crawler and the simulator, and the one writer of
// the Prometheus text exposition format the fleet daemon serves. The
// counters mirror the packet-counter style of kernel dataplane
// observability: cheap cells registered in a set and read back by name.
//
// The cells are single-writer plain integers, not atomics. A Set and its
// cells belong to the goroutine that drives the Set's owner (a NAT lane,
// a simnet Network, a crawler): only that goroutine registers, adds or
// sets. Any other goroutine reads only after synchronizing with the
// owner — a join, a channel barrier, a mutex — never while it runs.
package metrics

// Counter is a monotonically increasing counter. The zero value is ready to
// use.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Store overwrites the count. It exists for state restoration (resuming
// a checkpointed engine continues its counters rather than restarting
// them); live instrumentation should only ever Inc/Add.
func (c *Counter) Store(n uint64) { c.v = n }

// Gauge is a settable instantaneous value. The zero value is ready to use.
type Gauge struct {
	v int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v = n }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v += delta }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Set is a named collection of counters and gauges.
type Set struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewSet returns an empty metric set.
func NewSet() *Set {
	return &Set{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (s *Set) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (s *Set) Gauge(name string) *Gauge {
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Counters returns the current value of every registered counter by
// name. Unlike Snapshot it excludes gauges, so a serialize/restore
// round-trip through Store cannot turn a gauge into a counter.
func (s *Set) Counters() map[string]uint64 {
	out := make(map[string]uint64, len(s.counters))
	for name, c := range s.counters {
		out[name] = c.Value()
	}
	return out
}

// Snapshot returns all metric values by name.
func (s *Set) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(s.counters)+len(s.gauges))
	for name, c := range s.counters {
		out[name] = int64(c.Value())
	}
	for name, g := range s.gauges {
		out[name] = g.Value()
	}
	return out
}
