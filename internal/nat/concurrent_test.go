package nat

import (
	"sync"
	"testing"
	"time"

	"cgn/internal/netaddr"
)

// TestConcurrentNATInstances drives independent NAT instances from
// parallel goroutines — the campaign engine's usage pattern, where each
// worker owns one world's NATs. The test exists for the race detector: it
// fails the -race CI step if any state (package-level tables, shared
// allocator internals, metrics registries) accidentally leaks across
// instances.
func TestConcurrentNATInstances(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, alloc := range []PortAlloc{Preservation, Sequential, Random, RandomChunk} {
				cfg := baseConfig()
				cfg.Type = Symmetric
				cfg.PortAlloc = alloc
				cfg.ChunkSize = 512
				cfg.PortLo, cfg.PortHi = 1024, 9215
				cfg.PortQuotaPerSubscriber = 64
				cfg.UDPTimeout = 30 * time.Second
				cfg.Seed = int64(w + 1)
				n := New(cfg)
				now := t0
				for i := 0; i < 1500; i++ {
					src := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, byte(w), byte(i%40)), uint16(2000+i%50))
					dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, byte(i%5), byte(i%250+1)), 53)
					out, v := n.TranslateOut(flowUDP(src, dst), now)
					if v == Ok {
						n.TranslateIn(flowUDP(dst, out.Src), now)
					}
					if i%7 == 0 {
						now = now.Add(3 * time.Second)
					}
					if i%100 == 0 {
						n.Sweep(now)
					}
				}
				st := n.PortStats()
				if st.InUse != n.NumMappings() {
					t.Errorf("worker %d %v: InUse=%d, mappings=%d", w, alloc, st.InUse, n.NumMappings())
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestConcurrentShardedFacade drives one Sharded NAT from a goroutine
// per shard — the traffic engine's shard-phase pattern, where each
// worker sweeps, refreshes and translates only on the lanes its shard
// owns. Like TestConcurrentNATInstances it exists for the race
// detector: lanes must share no mutable state, and the aggregation
// methods must be clean once workers have joined the barrier. It also
// re-checks shard-count invariance under real concurrency by digesting
// against a sequentially driven shards=1 twin fed the same schedule.
//
// Each shard count runs twice: once on each lane through Lane(l), as the
// traffic kernel drives it, and once through the façade's routed
// TranslateOutRef, TranslateIn and Refresh, as perfbench's nat-table
// does, so shard goroutines read the pool index concurrently.
func TestConcurrentShardedFacade(t *testing.T) {
	cfg := shardedConfig(8)
	cfg.Type = Symmetric
	cfg.PortQuotaPerSubscriber = 64
	const subsPerLane = 24
	const ticks = 40

	// engine is what a shard goroutine calls: a lane, or the façade,
	// which resolves the lane itself on every call.
	type engine interface {
		TranslateOutRef(netaddr.Flow, time.Time) (netaddr.Flow, MappingRef, Verdict)
		TranslateIn(netaddr.Flow, time.Time) (netaddr.Flow, Verdict)
		Refresh(MappingRef, netaddr.Endpoint, time.Time) bool
	}
	run := func(shards int, routed bool) *Sharded {
		s := NewSharded(cfg, shards)
		// Partition subscribers by owning lane up front so every engine
		// call below touches exactly one shard's lanes.
		laneSubs := make([][]netaddr.Addr, s.NumLanes())
		for i := 0; len(laneSubs[s.NumLanes()-1]) < subsPerLane; i++ {
			a := subAddr(i)
			l := s.LaneFor(a)
			if len(laneSubs[l]) < subsPerLane {
				laneSubs[l] = append(laneSubs[l], a)
			}
		}
		shardTick := func(shard, tick int, now time.Time) {
			s.SweepShard(shard, now)
			for l := shard; l < s.NumLanes(); l += s.NumShards() {
				var e engine = s.Lane(l)
				if routed {
					e = s
				}
				for j, a := range laneSubs[l] {
					src := netaddr.EndpointOf(a, uint16(3000+tick*7+j))
					dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, byte(tick%5), byte(j+1)), 443)
					out, r, v := e.TranslateOutRef(flowUDP(src, dst), now)
					if v != Ok {
						continue
					}
					e.TranslateIn(flowUDP(dst, out.Src), now)
					if tick%3 == j%3 {
						e.Refresh(r, netaddr.Endpoint{}, now)
					}
				}
			}
		}
		now := t0
		for tick := 0; tick < ticks; tick++ {
			if shards == 1 {
				shardTick(0, tick, now)
			} else {
				var wg sync.WaitGroup
				for shard := 1; shard < s.NumShards(); shard++ {
					wg.Add(1)
					go func(shard int) {
						defer wg.Done()
						shardTick(shard, tick, now)
					}(shard)
				}
				shardTick(0, tick, now)
				wg.Wait()
			}
			// Aggregation between barriers, as the traffic engine does.
			if st := s.PortStats(); st.InUse != s.NumMappings() {
				t.Errorf("shards=%d routed=%v tick %d: InUse=%d, mappings=%d", shards, routed, tick, st.InUse, s.NumMappings())
			}
			now = now.Add(5 * time.Second)
		}
		return s
	}

	want := run(1, false).StateDigest()
	for _, routed := range []bool{false, true} {
		for _, shards := range []int{2, 4, 8} {
			if got := run(shards, routed).StateDigest(); got != want {
				t.Errorf("shards=%d routed=%v digest %s, want shards=1 digest %s", shards, routed, got, want)
			}
		}
	}
}
