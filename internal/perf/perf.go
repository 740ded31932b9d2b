// Package perf defines the repository's hot-path micro-benchmarks as
// plain functions over *testing.B. The same bodies back both the `go
// test -bench` entry points (bench_test.go at the repository root) and
// cmd/benchjson, which runs them via testing.Benchmark and emits the
// machine-readable BENCH_<n>.json trajectory. Keeping one set of bodies
// means the JSON baseline and the CI bench job can never measure
// different code.
package perf

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cgn/internal/bencode"
	"cgn/internal/internet"
	"cgn/internal/krpc"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/routing"
	"cgn/internal/simnet"
	"cgn/internal/stun"
	"cgn/internal/traffic"
)

// Bench names one registered hot-path benchmark.
type Bench struct {
	Name string
	F    func(*testing.B)
	// Workers and Shards record the concurrency shape a parallel
	// benchmark runs at — realm worker-pool size and NAT shards per
	// realm — so trajectory files carry the knobs a number was measured
	// under. Zero means the benchmark sets no such knob: single-threaded
	// bodies, or a traffic run at the default of one shard per realm.
	Workers int
	Shards  int
	// Procs is the GOMAXPROCS the benchmark pins for its own duration
	// (zero = inherit the process value). Multicore variants set it so a
	// trajectory file records which entries measured parallel speedup
	// rather than the host's default parallelism.
	Procs int
}

// All returns the registered hot-path benchmarks in report order.
func All() []Bench {
	procs := runtime.GOMAXPROCS(0)
	return []Bench{
		{Name: "ForwardSteady/fast", F: ForwardSteadyFast},
		{Name: "ForwardSteady/slow", F: ForwardSteadySlow},
		{Name: "SimnetNAT444Walk", F: SimnetNAT444Walk},
		{Name: "NATTranslateOut", F: NATTranslateOut},
		{Name: "NATTranslateIn", F: NATTranslateIn},
		{Name: "NATPortChurn", F: NATPortChurn},
		{Name: "TrafficWeek", F: TrafficWeek, Workers: 4},
		{Name: "TrafficMetroSharded", F: TrafficMetroSharded, Workers: procs, Shards: procs},
		{Name: "TrafficMetroSharded/mp4", F: TrafficMetroShardedMP4, Workers: 4, Shards: 4, Procs: 4},
		{Name: "BencodeDecode", F: BencodeDecode},
		{Name: "KRPCParseFindNodeResponse", F: KRPCParseFindNodeResponse},
		{Name: "STUNParse", F: STUNParse},
		{Name: "LPMLookup", F: LPMLookup},
	}
}

// ForwardSteadyFast measures steady-state packet forwarding over a built
// Small world on the compiled-path engine: repeated sends from a rotating
// set of subscribers (bare CGN, NAT444 home devices, a public host)
// toward a public sink, every route and NAT mapping warm. The cached path
// must not allocate.
func ForwardSteadyFast(b *testing.B) { forwardSteady(b, true) }

// ForwardSteadySlow is the same workload on the reference walk — the
// pre-compiled-path forwarding engine kept as the slow path. The ratio
// between the two is the engine's speedup.
func ForwardSteadySlow(b *testing.B) { forwardSteady(b, false) }

func forwardSteady(b *testing.B, fast bool) {
	w := internet.Build(internet.Small())
	w.Net.SetFastPath(fast)
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
	// Warm every route and NAT mapping; the loop below measures the
	// steady state only. Two packets per sender: the engine defers route
	// compilation to the second packet of a (realm, dst) pair.
	for _, h := range senders {
		for i := 0; i < 2; i++ {
			if res := h.Send(netaddr.UDP, 40000, dst, nil); !res.Delivered() {
				b.Fatalf("warmup send from %s: %+v", h.Name(), res)
			}
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

// SimnetNAT444Walk measures one NAT444 delivery (CPE + CGN on path) on a
// minimal hand-built topology.
func SimnetNAT444Walk(b *testing.B) {
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

// NATTranslateOut measures the outbound translation hot path (mapping
// exists, no allocation).
func NATTranslateOut(b *testing.B) {
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

// NATTranslateIn measures the inbound translation hot path.
func NATTranslateIn(b *testing.B) {
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

// NATPortChurn measures the port-resource engine under the mobile-churn
// regime: every iteration creates a fresh mapping (sequential allocation
// against a bitmap that stays ~75% full) while virtual time advances and
// periodic Sweeps expire old mappings off the deadline heap. Steady
// state holds ~30k live mappings.
func NATPortChurn(b *testing.B) {
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

// TrafficWeek measures the traffic engine driving one simulated week of
// diurnal subscriber flow churn — arrivals, per-tick mapping-handle
// refreshes, expiry sweeps and per-subscriber sampling — through four
// carrier-NAT realms of 64 subscribers each, on a four-worker realm
// pool (one worker per realm; the engine's determinism contract makes
// the result byte-identical to a sequential run). One iteration is one
// full week, so ns/op is the engine's whole-run cost at diurnal-week
// scale.
func TrafficWeek(b *testing.B) {
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

// TrafficMetroSharded measures the engine at ISP scale: a
// million-subscriber metro — 16 carrier realms of 65,536 subscribers
// each, four external IPs (lanes) per realm — driven through one
// simulated day of diurnal churn on a GOMAXPROCS-wide realm pool, each
// realm split across GOMAXPROCS shards (clamped to its 4 lanes). One
// iteration is the full day (~100 million subscriber-tick samples plus
// tens of millions of mapping events), so ns/op is the whole-run wall
// clock the ROADMAP's "millions of users" target is measured by; at
// GOMAXPROCS=1 it is the single-core cost of that day.
func TrafficMetroSharded(b *testing.B) { trafficMetro(b, runtime.GOMAXPROCS(0)) }

// TrafficMetroShardedMP4 is the sharded metro day pinned to
// GOMAXPROCS=4 with four workers × four shards — the multicore point of
// the trajectory. Since the single-phase tick loop removed the serial
// driver phase, per-tick work is lane-confined end to end, so this
// variant is what the persistent-worker barrier actually buys on a
// multicore host; on fewer physical cores it degrades to the 1-core
// number (the pinned GOMAXPROCS only caps, it cannot mint cores — read
// it next to the host's core count).
func TrafficMetroShardedMP4(b *testing.B) {
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

// BencodeDecode measures decoding a find_node response.
func BencodeDecode(b *testing.B) {
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

// KRPCParseFindNodeResponse measures the full KRPC parse of a find_node
// response carrying eight contacts.
func KRPCParseFindNodeResponse(b *testing.B) {
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

// STUNParse measures parsing a binding response.
func STUNParse(b *testing.B) {
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

// LPMLookup measures longest-prefix-match lookups against a 5k-entry
// table.
func LPMLookup(b *testing.B) {
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
