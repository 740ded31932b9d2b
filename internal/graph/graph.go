// Package graph provides the bipartite leak-graph machinery behind the
// paper's BitTorrent clustering (§4.1, Figures 3 and 4): vertices are
// public leaker IPs on one side and internal peer IPs on the other, an
// edge means "this public peer leaked contact information for this
// internal peer", and connected components reveal NAT pooling — many
// public addresses sharing one internal population.
package graph

import "sort"

// Bipartite is an undirected bipartite graph with comparable vertex types
// for the left (public) and right (internal) sides.
type Bipartite[L comparable, R comparable] struct {
	leftIdx  map[L]int
	rightIdx map[R]int
	lefts    []L
	rights   []R
	dsu      []int // union-find over left vertices then right vertices
}

// NewBipartite returns an empty graph.
func NewBipartite[L comparable, R comparable]() *Bipartite[L, R] {
	return &Bipartite[L, R]{
		leftIdx:  make(map[L]int),
		rightIdx: make(map[R]int),
	}
}

// AddEdge inserts the edge (l, r), creating vertices as needed.
// Duplicate edges are harmless.
func (b *Bipartite[L, R]) AddEdge(l L, r R) {
	li, ok := b.leftIdx[l]
	if !ok {
		li = len(b.dsu)
		b.leftIdx[l] = li
		b.lefts = append(b.lefts, l)
		b.dsu = append(b.dsu, li)
	}
	ri, ok := b.rightIdx[r]
	if !ok {
		ri = len(b.dsu)
		b.rightIdx[r] = ri
		b.rights = append(b.rights, r)
		b.dsu = append(b.dsu, ri)
	}
	b.union(li, ri)
}

func (b *Bipartite[L, R]) find(x int) int {
	for b.dsu[x] != x {
		b.dsu[x] = b.dsu[b.dsu[x]]
		x = b.dsu[x]
	}
	return x
}

func (b *Bipartite[L, R]) union(x, y int) {
	rx, ry := b.find(x), b.find(y)
	if rx != ry {
		b.dsu[ry] = rx
	}
}

// Component is one connected cluster.
type Component[L comparable, R comparable] struct {
	Left  []L
	Right []R
}

// Components returns all connected clusters, largest first (by left
// size, then right size). Within a component, vertex order follows
// insertion order, keeping output deterministic.
func (b *Bipartite[L, R]) Components() []Component[L, R] {
	byRoot := make(map[int]*Component[L, R])
	for _, l := range b.lefts {
		root := b.find(b.leftIdx[l])
		c := byRoot[root]
		if c == nil {
			c = &Component[L, R]{}
			byRoot[root] = c
		}
		c.Left = append(c.Left, l)
	}
	for _, r := range b.rights {
		root := b.find(b.rightIdx[r])
		c := byRoot[root]
		if c == nil {
			c = &Component[L, R]{}
			byRoot[root] = c
		}
		c.Right = append(c.Right, r)
	}
	out := make([]Component[L, R], 0, len(byRoot))
	for _, c := range byRoot {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Left) != len(out[j].Left) {
			return len(out[i].Left) > len(out[j].Left)
		}
		return len(out[i].Right) > len(out[j].Right)
	})
	return out
}
