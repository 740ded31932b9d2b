package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"cgn/internal/detect"
	"cgn/internal/internet"
	"cgn/internal/props"
	"cgn/internal/report"
	"cgn/internal/survey"
)

// campaignWorkload runs what reportgen runs: build the paper world, collect
// the campaign and render every experiment. It collects with
// report.CollectSequential, which renders the same report as
// report.Collect with every stage on the calling goroutine: the pass uses
// one core, as the other single-core workloads do, the traced pass is its
// twin, and a stage that panics fails the pass instead of the process.
func campaignWorkload(toy bool) *workload {
	scenario := "paper"
	if toy {
		scenario = "small"
	}
	wl := &workload{name: "paper-campaign", workers: 1, shards: 1}
	wl.setup = func(seed int64, _ string) (instance, error) {
		sc, err := internet.Lookup(scenario)
		if err != nil {
			return nil, err
		}
		sc.Seed = seed
		// E21 stays off: on some seeds (19, 20, 23-25 among 1-40) its
		// fleet replay panics in fleet's rebuildLC, which hands
		// traffic.LiveCounts.Move a jump of 16 or more buckets from a fresh
		// table of 8. fleet-quarter measures the same fleet kernel.
		sc.Observation = internet.ObservationSpec{}
		return &campaign{w: internet.Build(sc)}, nil
	}
	return wl
}

type campaign struct {
	w   *internet.World
	b   *report.Bundle
	all string
}

func (c *campaign) run(tr *tracer) error {
	if tr != nil {
		c.b = tracedCollect(c.w, tr)
	} else {
		c.b = report.CollectSequential(c.w)
	}
	tr.do("report.render", -1, func() { c.all = c.b.All() })
	return nil
}

// tracedCollect rebuilds report.Collect from the public stage functions,
// in CollectSequential's order, with a span around each layer.
func tracedCollect(w *internet.World, tr *tracer) *report.Bundle {
	b := &report.Bundle{World: w}
	tr.do("internet.crawl", -1, func() { b.Crawl = w.RunCrawl(internet.DefaultCrawlOptions()) })
	tr.do("internet.netalyzr", -1, func() { b.Sessions = w.RunNetalyzr() })
	tr.do("survey", -1, func() { b.Survey = survey.AggregateCorpus(survey.Corpus(w.Scenario.Seed)) })
	tr.do("detect", -1, func() {
		b.BT = detect.AnalyzeBitTorrent(b.Crawl, w.BTDetectConfig())
		b.BTV = detect.BTView(b.BT)
		b.Cellular = detect.AnalyzeCellular(b.Sessions, w.Net.Global(), detect.NLConfig{})
		b.CellV = detect.CellularView(b.Cellular)
		b.NonCell = detect.AnalyzeNonCellular(b.Sessions, w.Net.Global(), detect.NLConfig{})
		b.NonCellV = detect.NonCellularView(b.NonCell)
		b.UnionV = detect.Union("BitTorrent ∪ Netalyzr", b.BTV, b.NonCellV)
	})
	tr.do("props", -1, func() {
		cgn := detect.Union("all", b.BTV, b.CellV, b.NonCellV).Positive
		filtered := props.FilterNetworks(b.Sessions, cgn, props.MinSessionsPerNetwork)
		b.Ports = props.AnalyzePorts(b.Sessions, cgn, props.PortConfig{})
		b.Space = props.AnalyzeInternalSpace(b.Sessions, b.BT, cgn, w.Net.Global(), b.NonCell.TopCPEBlocks)
		b.Distance = props.AnalyzeDistance(filtered, cgn)
		b.Timeouts = props.AnalyzeTimeouts(filtered, cgn)
		b.TTLQuad = props.AnalyzeTTLDetection(b.Sessions)
		b.STUN = props.AnalyzeSTUN(filtered, cgn)
	})
	tr.do("report.e17", -1, func() { b.Load = report.AnalyzePortLoad(w) })
	tr.do("report.e18", -1, func() { b.Traffic = report.AnalyzeTrafficOpts(w, 0, 0) })
	tr.do("report.e19", -1, func() { b.Adversarial = report.AnalyzeAdversarial(w, 0, 0) })
	b.Observe = report.AnalyzeObservation(w, 0)
	tr.do("report.e22", -1, func() { b.Faults = report.AnalyzeFaults(w, 0, 0) })
	return b
}

func (c *campaign) work() float64 { return 1 }

func (c *campaign) check() (string, error) {
	if c.b.Crawl == nil || len(c.b.Crawl.Queried) == 0 || len(c.b.Sessions) == 0 || c.all == "" {
		return "", fmt.Errorf("empty campaign: crawl or Netalyzr sessions or report missing")
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(c.all))), nil
}

func (c *campaign) layers(tr *tracer, _ time.Duration) map[string]float64 {
	ms := func(name string) float64 {
		d, _ := tr.total(name)
		return float64(d) / 1e6
	}
	crawl, _ := tr.total("internet.crawl")
	netalyzr, _ := tr.total("internet.netalyzr")
	sent := c.w.Net.Metrics.Counter("pkts_sent").Value()
	var translated uint64
	for _, d := range c.w.Net.Devices() {
		for _, name := range []string{"pkts_out", "pkts_in", "pkts_hairpin"} {
			translated += d.NAT.Metrics.Counter(name).Value()
		}
	}
	return map[string]float64{
		"internet.crawl_s":      crawl.Seconds(),
		"internet.netalyzr_s":   netalyzr.Seconds(),
		"simnet.pkts_sent":      float64(sent),
		"simnet.ns_per_pkt":     float64(crawl+netalyzr) / float64(sent),
		"crawler.peers_queried": float64(len(c.b.Crawl.Queried)),
		"crawler.peers_learned": float64(len(c.b.Crawl.Learned)),
		"nat.pkts_translated":   float64(translated),
		"detect.ms":             ms("detect"),
		"props.ms":              ms("props"),
		"report.render_ms":      ms("report.render"),
		"report.e18_ms":         ms("report.e18"),
		"report.e22_ms":         ms("report.e22"),
	}
}

func (c *campaign) close() {}
