// Package routing implements a longest-prefix-match routing table over the
// netaddr types. The repository uses it in two roles: as the simulated
// global BGP table (deciding whether an address is "routed" in the §4.2
// sense) and as per-ISP internal routing inside the network simulator.
package routing

import (
	"fmt"
	"sort"
	"strings"

	"cgn/internal/netaddr"
)

// Table is a longest-prefix-match table mapping prefixes to opaque values.
// The zero value... is not usable; call NewTable. Table is not safe for
// concurrent mutation; the simulator builds tables once and then only reads.
type Table[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] {
	return &Table[V]{root: &node[V]{}}
}

// Len returns the number of installed prefixes.
func (t *Table[V]) Len() int { return t.size }

// Insert installs or replaces the value for an exact prefix.
func (t *Table[V]) Insert(p netaddr.Prefix, v V) {
	n := t.root
	a := uint32(p.Addr())
	for i := 0; i < p.Bits(); i++ {
		bit := (a >> (31 - uint(i))) & 1
		if n.child[bit] == nil {
			n.child[bit] = &node[V]{}
		}
		n = n.child[bit]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = v, true
}

// Lookup returns the value of the longest installed prefix containing a.
func (t *Table[V]) Lookup(a netaddr.Addr) (V, bool) {
	var (
		best  V
		found bool
	)
	n := t.root
	u := uint32(a)
	for i := 0; ; i++ {
		if n.set {
			best, found = n.val, true
		}
		if i == 32 {
			break
		}
		bit := (u >> (31 - uint(i))) & 1
		if n.child[bit] == nil {
			break
		}
		n = n.child[bit]
	}
	return best, found
}

// Contains reports whether some installed prefix covers a.
func (t *Table[V]) Contains(a netaddr.Addr) bool {
	_, ok := t.Lookup(a)
	return ok
}

// Walk visits every installed prefix in address order, shortest prefix
// first among equal addresses. The walk stops if fn returns false.
func (t *Table[V]) Walk(fn func(p netaddr.Prefix, v V) bool) {
	var rec func(n *node[V], addr uint32, depth int) bool
	rec = func(n *node[V], addr uint32, depth int) bool {
		if n == nil {
			return true
		}
		if n.set {
			if !fn(netaddr.PrefixFrom(netaddr.Addr(addr), depth), n.val) {
				return false
			}
		}
		if depth == 32 {
			return true
		}
		if !rec(n.child[0], addr, depth+1) {
			return false
		}
		return rec(n.child[1], addr|1<<(31-uint(depth)), depth+1)
	}
	rec(t.root, 0, 0)
}

// String renders the table for debugging.
func (t *Table[V]) String() string {
	var b strings.Builder
	t.Walk(func(p netaddr.Prefix, v V) bool {
		fmt.Fprintf(&b, "%v -> %v\n", p, v)
		return true
	})
	return b.String()
}

// Global is the simulated global routing table: the set of prefixes
// announced into "BGP" by the generated Internet, each mapped to its origin
// AS number. It answers the "is this address routed" question from §4.2.
type Global struct {
	t *Table[uint32]
}

// NewGlobal returns an empty global table.
func NewGlobal() *Global { return &Global{t: NewTable[uint32]()} }

// Announce installs prefix p as originated by asn.
func (g *Global) Announce(p netaddr.Prefix, asn uint32) { g.t.Insert(p, asn) }

// Routed reports whether a is covered by any announced prefix. Reserved
// addresses are never routed, matching their intended use; the paper notes
// some ASes internally use routable-but-unrouted space (e.g. 25.0.0.0/8),
// which this model captures by simply not announcing those blocks.
func (g *Global) Routed(a netaddr.Addr) bool {
	if netaddr.IsReserved(a) {
		return false
	}
	return g.t.Contains(a)
}

// OriginAS returns the AS number originating the longest matching prefix.
func (g *Global) OriginAS(a netaddr.Addr) (uint32, bool) {
	if netaddr.IsReserved(a) {
		return 0, false
	}
	return g.t.Lookup(a)
}

// NumPrefixes returns the number of announced prefixes.
func (g *Global) NumPrefixes() int { return g.t.Len() }

// Walk visits every announced prefix with its origin AS in address order.
// Dataset exporters use it to snapshot the table alongside measurement
// data, so offline analysis can answer routability questions.
func (g *Global) Walk(fn func(p netaddr.Prefix, asn uint32) bool) {
	g.t.Walk(fn)
}

// SortPrefixes orders prefixes by address then length; a convenience for
// deterministic report output.
func SortPrefixes(ps []netaddr.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Addr() != ps[j].Addr() {
			return ps[i].Addr() < ps[j].Addr()
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}
