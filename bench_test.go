// Benchmark harness: one bench per paper table/figure (E01..E16, see
// the experiment index in README.md), ablation benches for the design choices the detection
// thresholds encode (A01..A04), and micro-benchmarks for the hot paths.
//
// Experiment benches measure the analysis step over a cached campaign
// (world generation and the measurement campaign run once); E02
// additionally measures a full crawl campaign per iteration since the
// crawl *is* that experiment. Ablation benches attach their findings as
// custom bench metrics (positives, false positives, ...), so `go test
// -bench` output doubles as the ablation table.
package cgn

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cgn/internal/bencode"
	"cgn/internal/campaign"
	"cgn/internal/crawler"
	"cgn/internal/detect"
	"cgn/internal/dht"
	"cgn/internal/graph"
	"cgn/internal/internet"
	"cgn/internal/krpc"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/props"
	"cgn/internal/report"
	"cgn/internal/routing"
	"cgn/internal/simnet"
	"cgn/internal/stun"
	"cgn/internal/survey"
	"cgn/internal/traffic"
)

var (
	fixOnce sync.Once
	fix     *report.Bundle
)

// fixture runs one full campaign over the Small scenario, shared by all
// experiment benches.
func fixture(b *testing.B) *report.Bundle {
	b.Helper()
	fixOnce.Do(func() {
		fix = report.Collect(internet.Build(internet.Small()))
	})
	return fix
}

func cgnTruthView(bu *report.Bundle) map[uint32]bool {
	u := detect.Union("all", bu.BTV, bu.CellV, bu.NonCellV)
	return u.Positive
}

// ---- Experiment benches: one per table/figure ----

func BenchmarkE01SurveyFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := survey.AggregateCorpus(survey.Corpus(int64(i)))
		if a.N != 75 {
			b.Fatal("bad corpus")
		}
	}
}

func BenchmarkE02CrawlTable2(b *testing.B) {
	// The crawl is the experiment: world build + swarm + crawl per
	// iteration.
	for i := 0; i < b.N; i++ {
		sc := internet.Small()
		sc.Seed = int64(i + 1)
		w := internet.Build(sc)
		ds := w.RunCrawl(internet.DefaultCrawlOptions())
		if len(ds.Queried) == 0 {
			b.Fatal("empty crawl")
		}
	}
}

func BenchmarkE03LeakTable3(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := bu.E03(); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkE04LeakGraphs(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := detect.AnalyzeBitTorrent(bu.Crawl, bu.World.BTDetectConfig())
		if len(res.PerAS) == 0 {
			b.Fatal("no ASes")
		}
	}
}

func BenchmarkE05ClusterScatter(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	var positives int
	for i := 0; i < b.N; i++ {
		res := detect.AnalyzeBitTorrent(bu.Crawl, bu.World.BTDetectConfig())
		positives = len(res.PositiveASes())
	}
	b.ReportMetric(float64(positives), "positives")
}

func BenchmarkE06AddrTable4(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.AnalyzeCellular(bu.Sessions, bu.World.Net.Global(), detect.NLConfig{})
	}
}

func BenchmarkE07NetalyzrScatter(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	var positives int
	for i := 0; i < b.N; i++ {
		res := detect.AnalyzeNonCellular(bu.Sessions, bu.World.Net.Global(), detect.NLConfig{})
		positives = len(res.PositiveASes())
	}
	b.ReportMetric(float64(positives), "positives")
}

func BenchmarkE08CoverageTable5(b *testing.B) {
	bu := fixture(b)
	pops := bu.World.DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		union := detect.Union("u", bu.BTV, bu.NonCellV)
		_ = union.Against(pops.RoutedPopulation())
		_ = union.Against(pops.PBLPopulation())
		_ = union.Against(pops.APNICPopulation())
	}
}

func BenchmarkE09RegionFigure6(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.ByRegion(bu.World.DB, bu.UnionV, bu.CellV)
	}
}

func BenchmarkE10InternalSpace(b *testing.B) {
	bu := fixture(b)
	cgnV := cgnTruthView(bu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		props.AnalyzeInternalSpace(bu.Sessions, bu.BT, cgnV, bu.World.Net.Global(), bu.NonCell.TopCPEBlocks)
	}
}

func BenchmarkE11PortFigure8(b *testing.B) {
	bu := fixture(b)
	cgnV := cgnTruthView(bu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		props.AnalyzePorts(bu.Sessions, cgnV, props.PortConfig{})
	}
}

func BenchmarkE12PortStrategies(b *testing.B) {
	bu := fixture(b)
	cgnV := cgnTruthView(bu)
	b.ResetTimer()
	var chunked int
	for i := 0; i < b.N; i++ {
		res := props.AnalyzePorts(bu.Sessions, cgnV, props.PortConfig{})
		chunked = len(res.ChunkASes())
	}
	b.ReportMetric(float64(chunked), "chunk_ases")
}

func BenchmarkE13TTLTable7(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := props.AnalyzeTTLDetection(bu.Sessions)
		if q.Total() == 0 {
			b.Fatal("no TTL sessions")
		}
	}
}

func BenchmarkE14NATDistance(b *testing.B) {
	bu := fixture(b)
	cgnV := cgnTruthView(bu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		props.AnalyzeDistance(bu.Sessions, cgnV)
	}
}

func BenchmarkE15Timeouts(b *testing.B) {
	bu := fixture(b)
	cgnV := cgnTruthView(bu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		props.AnalyzeTimeouts(bu.Sessions, cgnV)
	}
}

func BenchmarkE16STUNTypes(b *testing.B) {
	bu := fixture(b)
	cgnV := cgnTruthView(bu)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		props.AnalyzeSTUN(bu.Sessions, cgnV)
	}
}

// ---- Ablation benches ----

// BenchmarkA01ClusterThreshold sweeps the 5x5 detection boundary and
// reports the false positives that lower thresholds admit.
func BenchmarkA01ClusterThreshold(b *testing.B) {
	bu := fixture(b)
	truth := bu.World.CGNTruth()
	for _, th := range []int{2, 3, 5, 8} {
		b.Run(benchName("threshold", th), func(b *testing.B) {
			var score detect.Score
			for i := 0; i < b.N; i++ {
				cfg := detect.BTConfig{MinLeakerIPs: th, MinInternalIPs: th, MinPeersQueried: 8}
				res := detect.AnalyzeBitTorrent(bu.Crawl, cfg)
				score = detect.BTView(res).ScoreAgainstTruth(truth)
			}
			b.ReportMetric(float64(score.TruePositive), "tp")
			b.ReportMetric(float64(score.FalsePositive), "fp")
		})
	}
}

// BenchmarkA02ValidationRate rebuilds the world with increasing shares of
// non-validating peers. Non-validating peers insert and re-propagate
// contacts they never verified, so tunnel-style noise spreads across
// ASes; the paper's §4.1 calibration argues the validation discipline
// plus the exclusive-leak filter keep this from polluting detection. The
// metrics report false positives with the filter on and off.
func BenchmarkA02ValidationRate(b *testing.B) {
	for _, frac := range []float64{0.0, 0.5, 1.0} {
		b.Run(benchName("nonvalidating_pct", int(frac*100)), func(b *testing.B) {
			var filtered, unfiltered detect.Score
			var leaks, excluded int
			for i := 0; i < b.N; i++ {
				sc := internet.Small()
				sc.NonValidatingFrac = frac
				sc.VPNPairs = 10                             // ample cross-AS noise to spread
				sc.BTPeers = internet.Span{Min: 28, Max: 40} // stable clusters
				// Guarantee eyeball CGN signal regardless of draw luck at
				// this world size.
				for r := range sc.EyeballCGNProb {
					sc.EyeballCGNProb[r] = 0.5
				}
				w := internet.Build(sc)
				ds := w.RunCrawl(internet.DefaultCrawlOptions())
				truth := w.CGNTruth()

				cfg := w.BTDetectConfig()
				res := detect.AnalyzeBitTorrent(ds, cfg)
				filtered = detect.BTView(res).ScoreAgainstTruth(truth)
				leaks = len(ds.Leaks)
				excluded = res.ExcludedVPN

				cfg.DisableVPNFilter = true
				raw := detect.AnalyzeBitTorrent(ds, cfg)
				unfiltered = detect.BTView(raw).ScoreAgainstTruth(truth)
			}
			b.ReportMetric(float64(filtered.TruePositive), "tp")
			b.ReportMetric(float64(filtered.FalsePositive), "fp_filtered")
			b.ReportMetric(float64(unfiltered.FalsePositive), "fp_unfiltered")
			b.ReportMetric(float64(leaks), "leak_records")
			b.ReportMetric(float64(excluded), "cross_as_leaked")
		})
	}
}

// BenchmarkA03DiversityCutoff sweeps the non-cellular /24-diversity
// factor.
func BenchmarkA03DiversityCutoff(b *testing.B) {
	bu := fixture(b)
	truth := bu.World.CGNTruth()
	for _, cutoff := range []float64{0.1, 0.25, 0.4, 0.6} {
		b.Run(benchName("cutoff_pct", int(cutoff*100)), func(b *testing.B) {
			var score detect.Score
			for i := 0; i < b.N; i++ {
				cfg := detect.NLConfig{DiversityFactor: cutoff}
				res := detect.AnalyzeNonCellular(bu.Sessions, bu.World.Net.Global(), cfg)
				score = detect.NonCellularView(res).ScoreAgainstTruth(truth)
			}
			b.ReportMetric(float64(score.TruePositive), "tp")
			b.ReportMetric(float64(score.FalsePositive), "fp")
		})
	}
}

// BenchmarkA04PortLeeway sweeps the port classifier leeway and reports
// how the session strategy mix shifts.
func BenchmarkA04PortLeeway(b *testing.B) {
	bu := fixture(b)
	cgnV := cgnTruthView(bu)
	for _, seqDiff := range []int{2, 50, 500} {
		b.Run(benchName("seqdiff", seqDiff), func(b *testing.B) {
			var sequential int
			for i := 0; i < b.N; i++ {
				cfg := props.PortConfig{SequentialMaxDiff: seqDiff}
				res := props.AnalyzePorts(bu.Sessions, cgnV, cfg)
				sequential = 0
				for _, as := range res.PerAS {
					sequential += as.Strategies[props.StrategySequential]
				}
			}
			b.ReportMetric(float64(sequential), "sequential_sessions")
		})
	}
}

// BenchmarkA05ChunkCapacity measures §7's implication directly: the
// concurrent flows one subscriber can hold through a chunk-allocating CGN,
// per chunk size (see examples/implications for the narrative version).
func BenchmarkA05ChunkCapacity(b *testing.B) {
	for _, chunk := range []int{512, 2048, 8192} {
		b.Run(benchName("chunk", chunk), func(b *testing.B) {
			var capacity int
			for i := 0; i < b.N; i++ {
				n := nat.New(nat.Config{
					Type:        nat.PortRestricted,
					PortAlloc:   nat.RandomChunk,
					ChunkSize:   chunk,
					Pooling:     nat.Paired,
					ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")},
					Seed:        int64(i),
				})
				now := time.Unix(0, 0)
				src := netaddr.MustParseEndpoint("100.64.0.5:0")
				capacity = 0
				for port := 1; port <= 20000; port++ {
					src.Port = uint16(port)
					dst := netaddr.MustParseEndpoint("203.0.113.10:443")
					if _, v := n.TranslateOut(netaddr.FlowOf(netaddr.TCP, src, dst), now); v != nat.Ok {
						break
					}
					capacity++
				}
			}
			b.ReportMetric(float64(capacity), "concurrent_flows")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// ---- Micro benches: hot paths ----
//
// CI's bench job times these and compares them with benchstat against
// the last main run. End-to-end and per-layer numbers come from the
// repository benchmark, perfbench/ (see BENCHMARK.json).

// BenchmarkForwardSteady measures steady-state packet forwarding over a
// built Small world: a few forwarding-heavy senders repeating one
// destination through the hop-by-hop walk. It must report 0 allocs/op.
func BenchmarkForwardSteady(b *testing.B) {
	w := internet.Build(internet.Small())
	rng := rand.New(rand.NewSource(99))
	sink := w.Net.NewHost("bench-sink", w.Net.Public(), netaddr.MustParseAddr("203.0.113.200"), 1, rng)
	sink.Bind(netaddr.UDP, 7, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	dst := netaddr.EndpointOf(sink.Addr(), 7)

	// Senders picked structurally for a forwarding-heavy mix: bare
	// subscribers inside carrier realms (the CGN sits several router hops
	// out, so these paths are long) and NAT444 home devices (two
	// translations on path). Plain one-hop NAT44 homes are deliberately
	// excluded — they barely forward.
	var senders []*simnet.Host
	bare, nat444 := 0, 0
	for _, r := range w.Net.Realms() {
		up := r.Up()
		if up == nil || len(r.Hosts()) == 0 {
			continue
		}
		hs := r.Hosts()
		switch {
		case up.Outer().Up() == nil && up.InnerHops() > 0 && bare < 8:
			// A realm whose NAT sits deep on the path is a carrier realm;
			// its directly attached hosts are bare subscribers.
			senders = append(senders, hs[0])
			bare++
		case up.Outer().Up() != nil && nat444 < 8:
			senders = append(senders, hs[len(hs)-1])
			nat444++
		}
	}
	if len(senders) == 0 {
		b.Fatal("no forwarding-heavy senders found in the Small world")
	}
	// Open every NAT mapping; the loop below measures the steady state
	// only.
	for _, h := range senders {
		if res := h.Send(netaddr.UDP, 40000, dst, nil); !res.Delivered() {
			b.Fatalf("warmup send from %s: %+v", h.Name(), res)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := senders[i%len(senders)]
		if res := h.Send(netaddr.UDP, 40000, dst, nil); !res.Delivered() {
			b.Fatal(res)
		}
	}
}

// BenchmarkNATTranslateOut measures the outbound translation hot path
// (mapping exists, no allocation).
func BenchmarkNATTranslateOut(b *testing.B) {
	n := nat.New(nat.Config{
		Type:        nat.PortRestricted,
		PortAlloc:   nat.Random,
		Pooling:     nat.Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")},
		Seed:        1,
	})
	now := time.Unix(0, 0)
	src := netaddr.MustParseEndpoint("100.64.0.5:4000")
	dst := netaddr.MustParseEndpoint("8.8.8.8:53")
	f := netaddr.FlowOf(netaddr.UDP, src, dst)
	n.TranslateOut(f, now) // create once; the loop measures the hot path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v := n.TranslateOut(f, now); v != nat.Ok {
			b.Fatal(v)
		}
	}
}

// BenchmarkNATTranslateIn measures the inbound translation hot path.
func BenchmarkNATTranslateIn(b *testing.B) {
	n := nat.New(nat.Config{
		Type:        nat.FullCone,
		PortAlloc:   nat.Random,
		Pooling:     nat.Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")},
		Seed:        1,
	})
	now := time.Unix(0, 0)
	src := netaddr.MustParseEndpoint("100.64.0.5:4000")
	dst := netaddr.MustParseEndpoint("8.8.8.8:53")
	out, _ := n.TranslateOut(netaddr.FlowOf(netaddr.UDP, src, dst), now)
	in := netaddr.FlowOf(netaddr.UDP, dst, out.Src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v := n.TranslateIn(in, now); v != nat.Ok {
			b.Fatal(v)
		}
	}
}

// BenchmarkNATPortChurn measures the port-resource engine under the
// mobile-churn regime: every iteration creates a fresh mapping
// (sequential allocation against a bitmap that stays ~75% full) while
// virtual time advances and periodic Sweeps expire old mappings off the
// deadline heap. Steady state holds ~30k live mappings.
func BenchmarkNATPortChurn(b *testing.B) {
	n := nat.New(nat.Config{
		Type:        nat.Symmetric,
		PortAlloc:   nat.Sequential,
		Pooling:     nat.Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")},
		UDPTimeout:  30 * time.Second,
		Seed:        1,
	})
	now := time.Unix(0, 0)
	src := netaddr.MustParseEndpoint("100.64.0.5:4000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := netaddr.EndpointOf(netaddr.Addr(uint32(0x08000000)+uint32(i)), 53)
		if _, v := n.TranslateOut(netaddr.FlowOf(netaddr.UDP, src, dst), now); v != nat.Ok {
			b.Fatal(v)
		}
		now = now.Add(time.Millisecond)
		if i&1023 == 1023 {
			n.Sweep(now)
		}
	}
}

// BenchmarkTrafficWeek measures the traffic engine driving one simulated
// week of diurnal subscriber flow churn — arrivals, per-tick
// mapping-handle refreshes, expiry sweeps and per-subscriber sampling —
// through four carrier-NAT realms of 64 subscribers each, on a
// four-worker realm pool (one worker per realm; the engine's determinism
// contract makes the result byte-identical to a sequential run). One
// iteration is one full week, so ns/op is the engine's whole-run cost at
// diurnal-week scale.
func BenchmarkTrafficWeek(b *testing.B) {
	realms := make([]traffic.RealmSpec, 4)
	for i := range realms {
		realms[i] = traffic.RealmSpec{
			ID:       "bench",
			Cellular: i%2 == 1,
			NAT: nat.Config{
				Type:        nat.Symmetric,
				PortAlloc:   nat.Random,
				Pooling:     nat.Paired,
				ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1") + netaddr.Addr(i)},
				UDPTimeout:  65 * time.Second,
				Seed:        int64(i + 1),
			},
			Subscribers: 64,
		}
	}
	cfg := traffic.Config{
		Seed: 7,
		Profile: traffic.Profile{
			Ticks:         7 * 288,
			DayTicks:      288,
			DiurnalAmp:    0.7,
			HeavyFrac:     0.06,
			LightFrac:     0.50,
			FlowsPerTick:  0.8,
			HeavyMult:     12,
			FlowHoldTicks: 4,
		},
		Workers: 4,
		Realms:  realms,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := traffic.Run(cfg)
		if res.All.Max == 0 {
			b.Fatal("traffic run produced no load")
		}
	}
}

// BenchmarkTrafficMetroSharded measures the engine at ISP scale: a
// million-subscriber metro — 16 carrier realms of 65,536 subscribers
// each, four external IPs (lanes) per realm — driven through one
// simulated day of diurnal churn on a GOMAXPROCS-wide realm pool, each
// realm split across GOMAXPROCS shards (clamped to its 4 lanes). One
// iteration is the full day (~100 million subscriber-tick samples plus
// tens of millions of mapping events), so ns/op is the whole-run wall
// clock the ROADMAP's "millions of users" target is measured by; at
// GOMAXPROCS=1 it is the single-core cost of that day.
func BenchmarkTrafficMetroSharded(b *testing.B) { trafficMetro(b, runtime.GOMAXPROCS(0)) }

// BenchmarkTrafficMetroShardedMP4 is the sharded metro day pinned to
// GOMAXPROCS=4 with four workers × four shards — the multicore point of
// the trajectory. Since the single-phase tick loop removed the serial
// driver phase, per-tick work is lane-confined end to end, so this
// variant is what the persistent-worker barrier actually buys on a
// multicore host; on fewer physical cores it degrades to the 1-core
// number (the pinned GOMAXPROCS only caps, it cannot mint cores — read
// it next to the host's core count).
func BenchmarkTrafficMetroShardedMP4(b *testing.B) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	trafficMetro(b, 4)
}

func trafficMetro(b *testing.B, shards int) {
	const (
		metroRealms      = 16
		metroSubs        = 65536 // 16 realms × 65,536 = 1,048,576 subscribers
		metroIPsPerRealm = 4
	)
	realms := make([]traffic.RealmSpec, metroRealms)
	for i := range realms {
		ips := make([]netaddr.Addr, metroIPsPerRealm)
		for k := range ips {
			ips[k] = netaddr.MustParseAddr("198.51.100.1") + netaddr.Addr(metroIPsPerRealm*i+k)
		}
		realms[i] = traffic.RealmSpec{
			ID:       "metro",
			Cellular: i%2 == 1,
			NAT: nat.Config{
				Type:        nat.Symmetric,
				PortAlloc:   nat.Random,
				Pooling:     nat.Paired,
				ExternalIPs: ips,
				UDPTimeout:  65 * time.Second,
				Seed:        int64(i + 1),
			},
			Subscribers: metroSubs,
		}
	}
	cfg := traffic.Config{
		Seed: 7,
		Profile: traffic.Profile{
			Ticks:         96,
			DayTicks:      96,
			DiurnalAmp:    0.7,
			HeavyFrac:     0.02,
			LightFrac:     0.60,
			FlowsPerTick:  0.25,
			HeavyMult:     8,
			FlowHoldTicks: 2,
		},
		Workers: runtime.GOMAXPROCS(0),
		Shards:  shards,
		Realms:  realms,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := traffic.Run(cfg)
		if res.All.Max == 0 {
			b.Fatal("traffic run produced no load")
		}
	}
}

// BenchmarkE17PortLoad measures the port-pressure analysis over the
// cached campaign's carrier NATs.
func BenchmarkE17PortLoad(b *testing.B) {
	bu := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := report.AnalyzePortLoad(bu.World)
		if pl.Pressure().Realms == 0 {
			b.Fatal("no CGN realms")
		}
	}
}

// BenchmarkBencodeDecode measures decoding a find_node response.
func BenchmarkBencodeDecode(b *testing.B) {
	var id krpc.NodeID
	nodes := make([]krpc.NodeInfo, 8)
	wire := krpc.EncodeFindNodeResponse([]byte("aa"), id, nodes)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bencode.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKRPCParseFindNodeResponse measures the full KRPC parse of a
// find_node response carrying eight contacts.
func BenchmarkKRPCParseFindNodeResponse(b *testing.B) {
	var id krpc.NodeID
	rng := rand.New(rand.NewSource(1))
	nodes := make([]krpc.NodeInfo, 8)
	for i := range nodes {
		rng.Read(nodes[i].ID[:])
		nodes[i].EP = netaddr.EndpointOf(netaddr.Addr(rng.Uint32()), 6881)
	}
	wire := krpc.EncodeFindNodeResponse([]byte("aa"), id, nodes)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := krpc.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTUNParse measures parsing a binding response.
func BenchmarkSTUNParse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := &stun.Message{
		Type:    stun.TypeBindingResponse,
		TID:     stun.NewTID(rng),
		Mapped:  netaddr.MustParseEndpoint("203.0.113.9:54321"),
		Changed: netaddr.MustParseEndpoint("203.0.113.2:3479"),
	}
	wire := stun.Encode(m)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stun.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLPMLookup measures longest-prefix-match lookups against a
// 5k-entry table.
func BenchmarkLPMLookup(b *testing.B) {
	t := routing.NewTable[int]()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		t.Insert(netaddr.PrefixFrom(netaddr.Addr(rng.Uint32()), 8+rng.Intn(17)), i)
	}
	addrs := make([]netaddr.Addr, 1024)
	for i := range addrs {
		addrs[i] = netaddr.Addr(rng.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(addrs[i&1023])
	}
}

func BenchmarkGraphComponents(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type edge struct{ l, r int }
	edges := make([]edge, 2000)
	for i := range edges {
		edges[i] = edge{rng.Intn(300), rng.Intn(500)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.NewBipartite[int, int]()
		for _, e := range edges {
			g.AddEdge(e.l, e.r)
		}
		if len(g.Components()) == 0 {
			b.Fatal("no components")
		}
	}
}

// BenchmarkSimnetNAT444Walk measures one NAT444 delivery (CPE + CGN on
// path) on a minimal hand-built topology.
func BenchmarkSimnetNAT444Walk(b *testing.B) {
	net := simnet.New()
	rng := rand.New(rand.NewSource(1))
	server := net.NewHost("server", net.Public(), netaddr.MustParseAddr("203.0.113.10"), 2, rng)
	server.Bind(netaddr.UDP, 7, func(_, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) {})
	isp := net.NewRealm("isp", 1)
	net.AttachNAT("cgn", isp, net.Public(), nat.Config{
		Type: nat.PortRestricted, PortAlloc: nat.Random, Pooling: nat.Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1")},
		Seed:        1,
	}, 2, 1)
	lan := net.NewRealm("lan", 0)
	net.AttachNAT("cpe", lan, isp, nat.Config{
		Type: nat.PortRestricted, PortAlloc: nat.Preservation, Pooling: nat.Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("10.0.0.2")},
		Seed:        2,
	}, 0, 0)
	dev := net.NewHost("dev", lan, netaddr.MustParseAddr("192.168.1.2"), 0, rng)
	dst := netaddr.EndpointOf(server.Addr(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := dev.Send(netaddr.UDP, 4000, dst, nil); !res.Delivered() {
			b.Fatal(res)
		}
	}
}

func BenchmarkDHTFindNodeHandling(b *testing.B) {
	node := dht.NewNode(dht.Config{ID: krpc.NodeID{1}, Seed: 1},
		dht.SenderFunc(func(netaddr.Endpoint, []byte) {}))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		var c krpc.NodeInfo
		rng.Read(c.ID[:])
		c.EP = netaddr.EndpointOf(netaddr.Addr(rng.Uint32()|1), 6881)
		node.InsertContact(c)
	}
	var target krpc.NodeID
	rng.Read(target[:])
	query := krpc.EncodeFindNode([]byte("aa"), krpc.NodeID{2}, target)
	from := netaddr.MustParseEndpoint("198.51.100.9:6881")
	b.SetBytes(int64(len(query)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.HandlePacket(from, query)
	}
}

// BenchmarkSweepSmall measures the campaign engine end to end: each
// iteration runs a full multi-world sweep (4 replicate worlds of the
// small scenario). The sub-benches vary only the worker count, so their
// ratio is the engine's parallel speedup on this machine; per-world
// outputs are byte-identical either way (the engine's determinism tests
// assert it).
func BenchmarkSweepSmall(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw, err := campaign.Run(campaign.Config{
					Scenarios:  []string{"small"},
					Replicates: 4,
					BaseSeed:   1,
					Workers:    workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(sw.Worlds) != 4 {
					b.Fatalf("sweep returned %d worlds, want 4", len(sw.Worlds))
				}
			}
		})
	}
}

func BenchmarkWorldBuildSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := internet.Small()
		sc.Seed = int64(i + 1)
		if w := internet.Build(sc); w.DB.Len() == 0 {
			b.Fatal("empty world")
		}
	}
}

func BenchmarkCrawlerLeakHarvest(b *testing.B) {
	// Standalone crawler against a single heavily-leaking node.
	net := simnet.New()
	rng := rand.New(rand.NewSource(3))
	global := net.Global()
	global.Announce(netaddr.MustParsePrefix("198.51.0.0/16"), 65001)
	host := net.NewHost("peer", net.Public(), netaddr.MustParseAddr("198.51.0.10"), 0, rng)
	sock := host.Open(netaddr.UDP, 6881)
	node := dht.NewNode(dht.Config{ID: krpc.NodeID{9}, Validate: true, Seed: 1},
		dht.SenderFunc(func(dst netaddr.Endpoint, p []byte) { sock.Send(dst, p) }))
	sock.OnRecv(node.HandlePacket)
	for i := 0; i < 32; i++ {
		var c krpc.NodeInfo
		rng.Read(c.ID[:])
		c.EP = netaddr.EndpointOf(netaddr.MustParseAddr("10.0.0.1")+netaddr.Addr(i), 6881)
		node.InsertContact(c)
	}
	crawlHost := net.NewHost("crawler", net.Public(), netaddr.MustParseAddr("203.0.113.9"), 0, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		crawlHost.Unbind(netaddr.UDP, 6881)
		cr := crawler.New(crawlHost, global, crawler.DefaultConfig())
		b.StartTimer()
		cr.Seed(netaddr.MustParseEndpoint("198.51.0.10:6881"))
		if ds := cr.Run(); len(ds.Leaks) == 0 {
			b.Fatal("no leaks")
		}
	}
}
