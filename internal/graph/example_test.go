package graph_test

import (
	"fmt"

	"cgn/internal/graph"
)

// The Figure 3 contrast in miniature: home NATs leak isolated pairs,
// CGN pooling links many public addresses to one shared internal
// population.
func ExampleBipartite_Components() {
	home := graph.NewBipartite[string, string]()
	home.AddEdge("pub1", "int-a")
	home.AddEdge("pub2", "int-b")

	cgnlike := graph.NewBipartite[string, string]()
	for _, pub := range []string{"pool1", "pool2", "pool3"} {
		for _, internal := range []string{"sub-x", "sub-y"} {
			cgnlike.AddEdge(pub, internal)
		}
	}
	h := home.Components()
	c := cgnlike.Components()
	fmt.Printf("home: largest cluster %dx%d of %d components\n", len(h[0].Left), len(h[0].Right), len(h))
	fmt.Printf("cgn:  largest cluster %dx%d of %d components\n", len(c[0].Left), len(c[0].Right), len(c))
	// Output:
	// home: largest cluster 1x1 of 2 components
	// cgn:  largest cluster 3x2 of 1 components
}
