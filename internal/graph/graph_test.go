package graph

import (
	"math/rand"
	"testing"
)

func TestEmptyGraph(t *testing.T) {
	b := NewBipartite[string, int]()
	if len(b.Components()) != 0 {
		t.Error("empty graph should have no components")
	}
}

func TestSingleEdge(t *testing.T) {
	b := NewBipartite[string, int]()
	b.AddEdge("a", 1)
	comps := b.Components()
	if len(comps) != 1 {
		t.Fatalf("components = %d", len(comps))
	}
	if len(comps[0].Left) != 1 || len(comps[0].Right) != 1 {
		t.Errorf("component = %+v", comps[0])
	}
}

func TestIsolatedVsClustered(t *testing.T) {
	// The Figure 3 contrast: isolated home leaks (each leaker leaks its
	// own internal peer) vs a CGN cluster (leakers share internal peers).
	iso := NewBipartite[string, string]()
	iso.AddEdge("pub1", "int1")
	iso.AddEdge("pub2", "int2")
	iso.AddEdge("pub3", "int3")
	isoComps := iso.Components()
	if got := len(isoComps); got != 3 {
		t.Errorf("isolated graph components = %d, want 3", got)
	}
	if lg := isoComps[0]; len(lg.Left) != 1 || len(lg.Right) != 1 {
		t.Errorf("isolated largest = %d x %d, want 1 x 1", len(lg.Left), len(lg.Right))
	}

	cgn := NewBipartite[string, string]()
	for _, pub := range []string{"pub1", "pub2", "pub3"} {
		for _, internal := range []string{"int1", "int2", "int3", "int4"} {
			cgn.AddEdge(pub, internal)
		}
	}
	cgnComps := cgn.Components()
	if got := len(cgnComps); got != 1 {
		t.Errorf("clustered graph components = %d, want 1", got)
	}
	if lg := cgnComps[0]; len(lg.Left) != 3 || len(lg.Right) != 4 {
		t.Errorf("clustered largest = %d x %d, want 3 x 4", len(lg.Left), len(lg.Right))
	}
}

func TestChainMerging(t *testing.T) {
	// pub1-int1, pub2-int1: shared internal peer joins the components.
	b := NewBipartite[string, string]()
	b.AddEdge("pub1", "int1")
	b.AddEdge("pub2", "int1")
	b.AddEdge("pub2", "int2")
	b.AddEdge("pub3", "int3") // separate
	comps := b.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0].Left) != 2 || len(comps[0].Right) != 2 {
		t.Errorf("largest = %+v", comps[0])
	}
}

func TestDuplicateEdges(t *testing.T) {
	b := NewBipartite[string, string]()
	b.AddEdge("pub1", "int1")
	b.AddEdge("pub1", "int1")
	if comps := b.Components(); len(comps) != 1 || len(comps[0].Left) != 1 || len(comps[0].Right) != 1 {
		t.Errorf("components = %+v, want one 1 x 1", comps)
	}
}

func TestComponentsSorted(t *testing.T) {
	b := NewBipartite[int, int]()
	// Component A: 1 left, 1 right. Component B: 3 lefts, 2 rights.
	b.AddEdge(1, 100)
	for l := 10; l < 13; l++ {
		b.AddEdge(l, 200)
	}
	b.AddEdge(12, 201)
	comps := b.Components()
	if len(comps[0].Left) != 3 {
		t.Errorf("components not sorted by size: %+v", comps)
	}
}

// Property test: components partition the vertex set, and every edge's
// endpoints share a component.
func TestComponentsPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		b := NewBipartite[int, int]()
		type edge struct{ l, r int }
		var edges []edge
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			e := edge{rng.Intn(12), rng.Intn(12)}
			edges = append(edges, e)
			b.AddEdge(e.l, e.r)
		}
		comps := b.Components()
		leftSeen, rightSeen := map[int]int{}, map[int]int{}
		for ci, c := range comps {
			for _, l := range c.Left {
				if _, dup := leftSeen[l]; dup {
					t.Fatal("left vertex in two components")
				}
				leftSeen[l] = ci
			}
			for _, r := range c.Right {
				if _, dup := rightSeen[r]; dup {
					t.Fatal("right vertex in two components")
				}
				rightSeen[r] = ci
			}
		}
		lefts, rights := map[int]bool{}, map[int]bool{}
		for _, e := range edges {
			lefts[e.l], rights[e.r] = true, true
		}
		if len(leftSeen) != len(lefts) || len(rightSeen) != len(rights) {
			t.Fatal("components lose vertices")
		}
		for _, e := range edges {
			if leftSeen[e.l] != rightSeen[e.r] {
				t.Fatalf("edge (%d,%d) spans components", e.l, e.r)
			}
		}
	}
}
