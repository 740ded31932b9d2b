// Package report regenerates every table and figure of the paper's
// evaluation from a measurement campaign over a generated world. Each
// experiment has a renderer (Experiments lists E01..E22 — see README.md
// for the index); Collect runs the full campaign once and the renderers
// format its results, so one invocation reproduces the entire
// evaluation section.
package report

import (
	"cgn/internal/crawler"
	"cgn/internal/detect"
	"cgn/internal/internet"
	"cgn/internal/netalyzr"
	"cgn/internal/par"
	"cgn/internal/props"
	"cgn/internal/survey"
)

// Bundle holds one campaign's datasets and analyses.
type Bundle struct {
	World    *internet.World
	Survey   survey.Aggregate
	Crawl    *crawler.Dataset
	BT       *detect.BTResult
	Sessions []netalyzr.Session
	Cellular *detect.CellularResult
	NonCell  *detect.NonCellularResult

	// Views and the union for coverage accounting.
	BTV, CellV, NonCellV, UnionV detect.MethodView

	// Property analyses.
	Ports    *props.PortResult
	Space    *props.InternalSpaceResult
	Distance *props.DistanceResult
	Timeouts *props.TimeoutResult
	TTLQuad  props.TTLQuadrants
	STUN     *props.STUNResult

	// Load is the E17 port-pressure snapshot of every carrier NAT.
	Load *PortLoad
	// Traffic is the E18 temporal port-usage analysis: the traffic
	// engine's run over replicas of every carrier NAT.
	Traffic *TrafficLoad
	// Adversarial is the E19 attack x defense matrix; disabled unless
	// the scenario's traffic profile offers adversarial load.
	Adversarial *AdversarialRun
	// Observe is the E21 longitudinal observation analysis: the fleet
	// engine's evolving-carrier run scored per observation window.
	Observe *ObservationRun
	// Faults is the E22 fault-injection analysis: degradation-and-
	// recovery curves under scheduled pool outages and engine restarts;
	// disabled unless the scenario schedules faults.
	Faults *FaultRun
}

// Collect runs the full measurement campaign and all analyses. The
// measurement stages execute sequentially — the crawl and the Netalyzr
// sessions translate through the same CGN devices, so interleaving them
// would race on NAT binding state and destroy the same-seed determinism
// the campaign engine depends on — but the analysis stages, which are
// pure functions over the collected datasets, run concurrently.
// CollectSequential produces a byte-identical Bundle on one goroutine.
func Collect(w *internet.World) *Bundle { return collect(w, true) }

// CollectSequential runs the identical campaign with every stage on the
// calling goroutine. Determinism tests diff its results against
// Collect's; it is also friendlier to execution tracing.
func CollectSequential(w *internet.World) *Bundle { return collect(w, false) }

// stages runs the given independent analysis stages, all at once or one
// at a time. Each stage writes only its own Bundle fields.
func stages(parallel bool, fns ...func()) {
	workers := 1
	if parallel {
		workers = len(fns)
	}
	par.Each(len(fns), workers, func(i int) { fns[i]() })
}

func collect(w *internet.World, parallel bool) *Bundle {
	b := &Bundle{World: w}

	// Measurement phase: single-threaded packet-level simulation.
	b.Crawl = w.RunCrawl(internet.DefaultCrawlOptions())
	b.Sessions = w.RunNetalyzr()

	// Detection phase: the survey aggregation, the BitTorrent pipeline
	// and the two Netalyzr pipelines are independent of one another.
	stages(parallel,
		func() { b.Survey = survey.AggregateCorpus(survey.Corpus(w.Scenario.Seed)) },
		func() {
			b.BT = detect.AnalyzeBitTorrent(b.Crawl, w.BTDetectConfig())
			b.BTV = detect.BTView(b.BT)
		},
		func() {
			b.Cellular = detect.AnalyzeCellular(b.Sessions, w.Net.Global(), detect.NLConfig{})
			b.CellV = detect.CellularView(b.Cellular)
		},
		func() {
			b.NonCell = detect.AnalyzeNonCellular(b.Sessions, w.Net.Global(), detect.NLConfig{})
			b.NonCellV = detect.NonCellularView(b.NonCell)
		},
	)
	b.UnionV = detect.Union("BitTorrent ∪ Netalyzr", b.BTV, b.NonCellV)

	// Property phase: every §6 analysis conditions on the combined CGN
	// verdict but is otherwise independent.
	cgn := b.combinedCGNView()
	filtered := props.FilterNetworks(b.Sessions, cgn, props.MinSessionsPerNetwork)
	stages(parallel,
		func() { b.Ports = props.AnalyzePorts(b.Sessions, cgn, props.PortConfig{}) },
		func() {
			b.Space = props.AnalyzeInternalSpace(b.Sessions, b.BT, cgn, w.Net.Global(), b.NonCell.TopCPEBlocks)
		},
		func() { b.Distance = props.AnalyzeDistance(filtered, cgn) },
		func() { b.Timeouts = props.AnalyzeTimeouts(filtered, cgn) },
		func() { b.TTLQuad = props.AnalyzeTTLDetection(b.Sessions) },
		func() { b.STUN = props.AnalyzeSTUN(filtered, cgn) },
		func() { b.Load = AnalyzePortLoad(w) },
		func() { b.Traffic = AnalyzeTrafficOpts(w, 0, 0) },
		func() { b.Adversarial = AnalyzeAdversarial(w, 0, 0) },
		func() { b.Observe = AnalyzeObservation(w, 0) },
		func() { b.Faults = AnalyzeFaults(w, 0, 0) },
	)
	return b
}

// combinedCGNView merges all three methods' positives — the verdict the
// §6 property analyses condition on.
func (b *Bundle) combinedCGNView() map[uint32]bool {
	all := detect.Union("all", b.BTV, b.CellV, b.NonCellV)
	return all.Positive
}
