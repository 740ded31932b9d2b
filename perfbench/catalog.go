package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// catalog.json is the benchmark's metric catalog: every metric's unit and
// direction, and for each per-layer metric the layer it measures, the
// end-to-end metric and workload it should move and the workloads where
// it should not move. BENCHMARK.json at the repository root repeats its
// names, units and bounds; the self-test keeps the two in step.
//
//go:embed catalog.json
var catalogJSON []byte

type catalog struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Seed string `json:"seed"`
}

type metricDef struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Meaning string  `json:"meaning"`
	// Per-layer metrics only.
	Layer  string   `json:"layer,omitempty"`
	On     string   `json:"on,omitempty"`
	Moves  []string `json:"moves,omitempty"`
	Steady []string `json:"steady_on,omitempty"`
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	return &c, nil
}

// emit attaches units to the measured values. Every metric of defs is
// reported. An end-to-end metric must have been measured; a per-layer
// metric of a layer the workload does not exercise reads 0. A value with
// no catalog entry is an error, so the catalog cannot fall behind.
func (c *catalog) emit(defs []metricDef, vals map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var unknown []string
	for k := range vals {
		if _, ok := out[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics missing from catalog.json: %v", unknown)
	}
	return out, nil
}
