package nat

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/netaddr"
)

// benchChurn measures steady-state allocation at a fixed occupancy: the
// space is pre-filled to `active` live ports, then every iteration frees
// one pseudo-random port and allocates a replacement under the given
// policy. This is the CGN regime the paper's §6 provisioning analysis
// cares about — tens of thousands of live mappings churning — and the
// regime where the map-based reference degrades to O(range) scans.
func benchChurn(b *testing.B, s portAllocator, alloc PortAlloc, active int) {
	b.Helper()
	rng := fastrand.Rand(1)
	ops := rand.New(rand.NewSource(2))
	live := make([]uint16, 0, active+1)
	for len(live) < active {
		p, ok := s.takeSequential(extIP, netaddr.UDP)
		if !ok {
			b.Fatal("pre-fill exhausted the space")
		}
		live = append(live, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := ops.Intn(len(live))
		s.free(netaddr.EndpointOf(extIP, live[j]), netaddr.UDP)
		var p uint16
		var ok bool
		switch alloc {
		case Preservation:
			want := 1024 + uint16(ops.Intn(64512))
			p, ok = s.takePreferred(extIP, netaddr.UDP, want, &rng)
		case Sequential:
			p, ok = s.takeSequential(extIP, netaddr.UDP)
		default:
			p, ok = s.takeRandom(extIP, netaddr.UDP, &rng)
		}
		if !ok {
			b.Fatal("allocation failed with free ports available")
		}
		live[j] = p
	}
}

// BenchmarkPortAllocator compares the bitmap engine against the map-based
// reference at 50k active mappings (~78% occupancy of one external IP).
// The bitmap/map ratio per policy is the allocator speedup; CI uploads
// this output as the perf baseline.
func BenchmarkPortAllocator(b *testing.B) {
	impls := []struct {
		name string
		mk   func() portAllocator
	}{
		{"bitmap", func() portAllocator { return newPortSpace(1024, 65535) }},
		{"map", func() portAllocator { return newMapPortSpace(1024, 65535) }},
	}
	for _, impl := range impls {
		for _, alloc := range []PortAlloc{Sequential, Random, Preservation} {
			b.Run(impl.name+"/"+alloc.String()+"/active=50k", func(b *testing.B) {
				benchChurn(b, impl.mk(), alloc, 50000)
			})
		}
	}
}

// BenchmarkSweep measures heap-based expiry at depth: 50k mappings with
// staggered deadlines, each iteration sweeping one 1-second slice of
// expirations (~500 mappings) — the virtual-time jumps the simulator
// performs.
func BenchmarkSweep(b *testing.B) {
	cfg := Config{
		Type:        Symmetric,
		PortAlloc:   Sequential,
		Pooling:     Paired,
		ExternalIPs: []netaddr.Addr{extIP},
		UDPTimeout:  100 * time.Second,
		Seed:        1,
	}
	now := t0
	var n *NAT
	i := 0
	refill := func() {
		n = New(cfg)
		for j := 0; j < 50000; j++ {
			dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, byte(j>>16), byte(j>>8), byte(j)), 53)
			src := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, byte(j>>8), byte(j)), 4000)
			if _, v := n.TranslateOut(flowUDP(src, dst), now.Add(time.Duration(j%100)*time.Second)); v != Ok {
				b.Fatal(v)
			}
		}
	}
	refill()
	sweepAt := now.Add(101 * time.Second)
	b.ResetTimer()
	for ; i < b.N; i++ {
		n.Sweep(sweepAt)
		sweepAt = sweepAt.Add(time.Second)
		if n.NumMappings() == 0 {
			b.StopTimer()
			sweepAt = now.Add(101 * time.Second)
			refill()
			b.StartTimer()
		}
	}
}

// BenchmarkChunkExhausted measures the refusal a chunk-allocated NAT
// hands a subscriber once every chunk on its external IP is assigned:
// 32 chunks of 128 ports (2048–6143, the synthetic fleet's chunk
// carriers) are held, and every iteration is a first flow from one of
// 64 subscribers without a chunk.
func BenchmarkChunkExhausted(b *testing.B) {
	cfg := baseConfig()
	cfg.PortAlloc = RandomChunk
	cfg.ChunkSize = 128
	cfg.PortLo, cfg.PortHi = 2048, 6143
	n := New(cfg)
	for i := 0; i < 32; i++ {
		sub := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, 0, byte(i)), 6881)
		if _, v := n.TranslateOut(flowUDP(sub, dstEP), t0); v != Ok {
			b.Fatalf("subscriber %d: %v", i, v)
		}
	}
	var refused [64]netaddr.Flow
	for i := range refused {
		refused[i] = flowUDP(netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, 1, byte(i)), 6881), dstEP)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v := n.TranslateOut(refused[i&63], t0); v != DropNoPorts {
			b.Fatalf("verdict %v, want DropNoPorts", v)
		}
	}
}

// natSink keeps the benchmarked constructor's result live.
var natSink *NAT

// BenchmarkNATNew measures nat.New alone for a one-IP pool, the shape
// the traffic and fleet kernels build per pool IP. It is not a lane's
// whole fixed cost: the first Mapping slab and port-bitmap block are
// paid on the first mapping (BenchmarkNATFirstMappings).
func BenchmarkNATNew(b *testing.B) {
	cfg := baseConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		natSink = New(cfg)
	}
}

// BenchmarkNATFirstMappings measures a small NAT's fixed cost through
// its first mappings: nat.New for a one-IP pool, then two UDP mappings
// from two subscribers, the most a median home NAT in the paper world
// holds at once. Small carrier realms pay it per lane for one or two
// subscribers, and simnet per CPE.
func BenchmarkNATFirstMappings(b *testing.B) {
	cfg := baseConfig()
	flows := [2]netaddr.Flow{flowUDP(intEP, dstEP), flowUDP(netaddr.MustParseEndpoint("100.64.0.6:4000"), dstEP2)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := New(cfg)
		for _, f := range flows {
			if _, v := n.TranslateOut(f, t0); v != Ok {
				b.Fatalf("verdict %v", v)
			}
		}
		natSink = n
	}
}

// BenchmarkNATFirstInbound measures the one-time build of the inbound
// index: the first TranslateIn after N outbound creations on a one-IP
// lane. Each iteration discards the built index outside the timer, so
// the next TranslateIn builds it again from the same table.
func BenchmarkNATFirstInbound(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("mappings=%d", size), func(b *testing.B) {
			n := New(baseConfig())
			var probe netaddr.Flow
			for j := 0; j < size; j++ {
				src := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, byte(j>>8), byte(j)), 4000)
				out, v := n.TranslateOut(flowUDP(src, dstEP), t0)
				if v != Ok {
					b.Fatalf("creation %d: %v", j, v)
				}
				probe = out.Reverse()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n.byExt, n.lastIn = extTable{}, nil
				b.StartTimer()
				if _, v := n.TranslateIn(probe, t0); v != Ok {
					b.Fatalf("verdict %v", v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/mapping")
		})
	}
}

// shardedBenchTable fills a sharded NAT over a lanes-IP pool with
// benchMappings live UDP mappings, one per subscriber, and returns it with
// their handles and external endpoints in creation order, which visits
// the lanes in hash order.
func shardedBenchTable(b *testing.B, lanes int) (*Sharded, []MappingRef, []netaddr.Endpoint) {
	b.Helper()
	const benchMappings = 1 << 14
	cfg := shardedConfig(lanes)
	cfg.Type = FullCone
	cfg.PortLo, cfg.PortHi = 1024, 65535
	s := NewSharded(cfg, 1)
	refs := make([]MappingRef, benchMappings)
	exts := make([]netaddr.Endpoint, benchMappings)
	for j := range refs {
		out, r, v := s.TranslateOutRef(flowUDP(netaddr.EndpointOf(subAddr(j), 4000), dstEP), t0)
		if v != Ok {
			b.Fatalf("creation %d: %v", j, v)
		}
		refs[j], exts[j] = r, out.Src
	}
	return s, refs, exts
}

// BenchmarkShardedRefresh measures Sharded.Refresh, which routes each
// handle to its lane by the mapping's external IP, at a fixed live
// count over pools of 4, 64 and 256 IPs. The per-call cost should not
// grow with the pool.
func BenchmarkShardedRefresh(b *testing.B) {
	for _, lanes := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			s, refs, _ := shardedBenchTable(b, lanes)
			now := t0.Add(time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.Refresh(refs[i%len(refs)], dstEP, now) {
					b.Fatalf("refresh %d reported stale", i)
				}
			}
		})
	}
}

// BenchmarkShardedTranslateIn measures Sharded.TranslateIn, which routes
// each reply to its lane by the destination IP, over the same tables as
// BenchmarkShardedRefresh. Every lane's inbound index is built before the
// timer starts.
func BenchmarkShardedTranslateIn(b *testing.B) {
	for _, lanes := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			s, _, exts := shardedBenchTable(b, lanes)
			replies := make([]netaddr.Flow, len(exts))
			for j, ext := range exts {
				replies[j] = flowUDP(dstEP, ext)
			}
			now := t0.Add(time.Second)
			for _, f := range replies {
				if _, v := s.TranslateIn(f, now); v != Ok {
					b.Fatalf("reply to %v: %v", f.Dst, v)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, v := s.TranslateIn(replies[i%len(replies)], now); v != Ok {
					b.Fatalf("reply %d: %v", i, v)
				}
			}
		})
	}
}
