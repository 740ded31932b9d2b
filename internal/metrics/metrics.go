// Package metrics provides the single-writer counter cells the NAT engine
// and the simnet network count into, and the one writer of the
// Prometheus text exposition format the fleet daemon serves. The
// counters mirror the packet-counter style of kernel dataplane
// observability: each owner keeps its cells in one fixed array, bumps
// them at constant indexes, and names them through a Set so callers
// read them back by name.
//
// The cells are single-writer plain integers, not atomics. A Set and its
// cells belong to the goroutine that drives the Set's owner (a NAT lane,
// a simnet Network): only that goroutine adds to them. Any other
// goroutine reads only after synchronizing with the owner — a join, a
// channel barrier, a mutex — never while it runs.
package metrics

import "iter"

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

// Set is a name table over counters its owner keeps: names[i] names
// cells[i]. It never creates a counter, so the owner's declaration is
// the whole list.
type Set struct {
	names []string
	cells []Counter
}

// NewSet names the owner's cells. It panics unless there is exactly one
// name per cell: the two lists are declared together in the owner's
// source.
func NewSet(names []string, cells []Counter) Set {
	if len(names) != len(cells) {
		panic("metrics: NewSet needs one name per counter")
	}
	return Set{names: names, cells: cells}
}

// Counter returns the owner's counter with the given name, or nil if the
// owner declared none by that name.
func (s Set) Counter(name string) *Counter {
	for i, n := range s.names {
		if n == name {
			return &s.cells[i]
		}
	}
	return nil
}

// Counters yields every counter's name and current value, in the order
// the owner declared them.
func (s Set) Counters() iter.Seq2[string, uint64] {
	return func(yield func(string, uint64) bool) {
		for i, n := range s.names {
			if !yield(n, s.cells[i].v) {
				return
			}
		}
	}
}
