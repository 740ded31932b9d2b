package nat

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/netaddr"
)

// checkSpace asserts the bitmap allocator's counters agree with its bits:
// every segment's free counter matches its popcount over the allocated
// blocks, and the global inUse matches the sum of taken bits. No block
// past the range may be allocated, and no bit past the range's last port
// may be set.
func checkSpace(t *testing.T, s *portSpace) {
	t.Helper()
	taken := 0
	for i, g := range s.segVals {
		pop := 0
		for b, blk := range g.blocks {
			if blk == nil {
				continue
			}
			if b<<blockShift >= s.size() {
				t.Fatalf("segment %#x: block %d allocated past the %d-port range", s.segKeys[i], b, s.size())
			}
			for w, word := range blk {
				pop += bits.OnesCount64(word)
				if base := b<<blockShift + w<<6; word != 0 && base+63-bits.LeadingZeros64(word) >= s.size() {
					t.Fatalf("segment %#x: bit set past the %d-port range in word %d", s.segKeys[i], s.size(), base>>6)
				}
			}
		}
		if g.free != s.size()-pop {
			t.Fatalf("segment %#x: free = %d, popcount says %d", s.segKeys[i], g.free, s.size()-pop)
		}
		taken += pop
	}
	if s.inUse != taken {
		t.Fatalf("inUse = %d, bits say %d", s.inUse, taken)
	}
	if s.peak < s.inUse {
		t.Fatalf("peak %d below inUse %d", s.peak, s.inUse)
	}
}

// TestBitmapMatchesMapReference drives the bitmap allocator and the
// original map-based reference through an identical randomized op stream
// (paired RNGs, one seed) and requires decision-for-decision agreement:
// same ports, same failures, same cursor behavior. The first three
// ranges fit in one bitmap block; the last three span several, and their
// op streams aim preferred ports just below block edges and the range
// top, so collision scans cross block edges and wrap from the last block
// to the first, and takes land in most of their blocks.
func TestBitmapMatchesMapReference(t *testing.T) {
	ranges := []struct {
		name   string
		lo, hi uint16
		ops    int
	}{
		{"narrow", 1000, 1127, 5000},
		{"offset", 40000, 41033, 5000},
		{"unaligned", 1029, 1157, 5000},
		{"default", 1024, 65535, 20000},
		{"full", 0, 65535, 20000},
		{"multi-block-unaligned", 3001, 12000, 20000},
	}
	ips := []netaddr.Addr{extIP, extIP2}
	for _, tc := range ranges {
		t.Run(tc.name, func(t *testing.T) {
			bm := newPortSpace(tc.lo, tc.hi)
			ref := newMapPortSpace(tc.lo, tc.hi)
			rngB, rngR := fastrand.Rand(7), fastrand.Rand(7)
			ops := rand.New(rand.NewSource(99))

			type held struct {
				ip   netaddr.Addr
				p    netaddr.Proto
				port uint16
			}
			var live []held
			span := int(tc.hi) - int(tc.lo) + 1
			// edges are the bit indices just past each block edge inside
			// the range, and the range's end.
			var edges []int
			for e := 1 << blockShift; e < span; e += 1 << blockShift {
				edges = append(edges, e)
			}
			edges = append(edges, span)
			crossed, wrapped := 0, 0
			for i := 0; i < tc.ops; i++ {
				ip := ips[ops.Intn(len(ips))]
				p := netaddr.Proto(ops.Intn(2))
				var pb, pr uint16
				var okB, okR bool
				want := -1
				op := ops.Intn(10)
				switch {
				case op < 3: // preferred, in and out of range, or below an edge
					w := uint16(ops.Intn(65536))
					switch ops.Intn(3) {
					case 0:
						w = tc.lo + uint16(ops.Intn(span))
					case 1:
						e := edges[ops.Intn(len(edges))]
						w = tc.lo + uint16(max(e-1-ops.Intn(8), 0))
					}
					if w >= tc.lo && w <= tc.hi {
						want = int(w) - int(tc.lo)
					}
					pb, okB = bm.takePreferred(ip, p, w, &rngB)
					pr, okR = ref.takePreferred(ip, p, w, &rngR)
				case op < 5:
					pb, okB = bm.takeSequential(ip, p)
					pr, okR = ref.takeSequential(ip, p)
				case op < 7:
					pb, okB = bm.takeRandom(ip, p, &rngB)
					pr, okR = ref.takeRandom(ip, p, &rngR)
				case op < 9: // random sub-range (the chunk path)
					a := tc.lo + uint16(ops.Intn(span))
					c := tc.lo + uint16(ops.Intn(span))
					if a > c {
						a, c = c, a
					}
					pb, okB = bm.takeRandomIn(ip, p, a, c, &rngB)
					pr, okR = ref.takeRandomIn(ip, p, a, c, &rngR)
				default: // free a random live port
					if len(live) == 0 {
						continue
					}
					j := ops.Intn(len(live))
					h := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					bm.free(netaddr.EndpointOf(h.ip, h.port), h.p)
					ref.free(netaddr.EndpointOf(h.ip, h.port), h.p)
					continue
				}
				if okB != okR || pb != pr {
					t.Fatalf("op %d: bitmap (%d, %v) != reference (%d, %v)", i, pb, okB, pr, okR)
				}
				if okB {
					live = append(live, held{ip, p, pb})
					idx := int(pb) - int(tc.lo)
					if want >= 0 && idx < want {
						wrapped++
					} else if want >= 0 && idx>>blockShift != want>>blockShift {
						crossed++
					}
				}
				if probe := tc.lo + uint16(ops.Intn(span)); bm.isFree(ip, p, probe) != ref.isFree(ip, p, probe) {
					t.Fatalf("op %d: isFree(%d) disagrees", i, probe)
				}
			}
			checkSpace(t, bm)
			if bm.inUse != len(live) {
				t.Fatalf("inUse = %d, held %d", bm.inUse, len(live))
			}
			allocated := 0
			for _, g := range bm.segVals {
				for _, blk := range g.blocks {
					if blk != nil {
						allocated++
					}
				}
			}
			if blocks := (span + 1<<blockShift - 1) >> blockShift; blocks > 1 {
				if allocated < 3*len(bm.segVals)*blocks/4 {
					t.Errorf("takes landed in %d of %d blocks", allocated, len(bm.segVals)*blocks)
				}
				if crossed == 0 || wrapped == 0 {
					t.Errorf("preferred takes crossed a block edge %d times and wrapped %d times, want both", crossed, wrapped)
				}
			}
		})
	}
}

// TestBitmapBlocksFollowTakes pins where the bitmap's storage goes: a
// take allocates the block its port falls in and no other, and probing
// or freeing ports never allocates a block, so a narrow range holds one
// block and a NAT holding one port holds one block of any range.
func TestBitmapBlocksFollowTakes(t *testing.T) {
	for _, r := range []struct{ lo, hi uint16 }{{1000, 1127}, {1024, 65535}, {0, 65535}, {3001, 12000}} {
		s := newPortSpace(r.lo, r.hi)
		rng := fastrand.Rand(1)
		held, ok := s.takeRandomIn(extIP, netaddr.UDP, r.hi-10, r.hi, &rng)
		if !ok {
			t.Fatalf("[%d, %d]: take refused", r.lo, r.hi)
		}
		for port := int(r.lo); port <= int(r.hi); port++ {
			if s.isFree(extIP, netaddr.UDP, uint16(port)) == (uint16(port) == held) {
				t.Fatalf("[%d, %d]: isFree(%d) wrong with %d held", r.lo, r.hi, port, held)
			}
			if uint16(port) != held {
				s.free(netaddr.EndpointOf(extIP, uint16(port)), netaddr.UDP)
			}
		}
		want := (int(held) - int(r.lo)) >> blockShift
		for b, blk := range s.lookup(extIP, netaddr.UDP).blocks {
			if (blk != nil) != (b == want) {
				t.Errorf("[%d, %d] holding %d: block %d allocated = %v", r.lo, r.hi, held, b, blk != nil)
			}
		}
		checkSpace(t, s)
	}
}

// TestTakePreferredFallbackSeedsCursor is the regression test for the
// unseeded-fallback bug: a want outside the allocatable range must seed
// the sequential cursor mid-cycle, not start handing out ports from the
// bottom of the range.
func TestTakePreferredFallbackSeedsCursor(t *testing.T) {
	const lo, hi = 10000, 20000
	s := newPortSpace(lo, hi)
	rng, ref := fastrand.Rand(1), fastrand.Rand(1)
	want := lo + uint16(ref.Intn(uint32(s.size())))
	if want == lo {
		t.Skip("seed lands on the range bottom; pick another seed")
	}
	p1, ok := s.takePreferred(extIP, netaddr.UDP, 80, &rng) // 80 < lo
	if !ok || p1 != want {
		t.Fatalf("first fallback port = %d (ok=%v), want mid-cycle %d", p1, ok, want)
	}
	// Subsequent fallbacks continue sequentially from the seeded cursor.
	p2, _ := s.takePreferred(extIP, netaddr.UDP, 80, &rng)
	if p2 != p1+1 {
		t.Errorf("second fallback port = %d, want %d", p2, p1+1)
	}
}

// TestPreservationFallbackMidCycleNAT asserts the same through the NAT
// engine: the first out-of-range preservation fallback must not land at
// PortLo.
func TestPreservationFallbackMidCycleNAT(t *testing.T) {
	cfg := baseConfig()
	cfg.PortLo, cfg.PortHi = 10000, 20000
	cfg.Seed = 5
	n := New(cfg)
	ref := fastrand.Rand(uint64(cfg.Seed))
	want := cfg.PortLo + uint16(ref.Intn(uint32(cfg.PortHi-cfg.PortLo)+1))
	src := netaddr.MustParseEndpoint("100.64.0.5:80") // below PortLo
	out, v := n.TranslateOut(flowUDP(src, dstEP), t0)
	if v != Ok {
		t.Fatalf("verdict = %v", v)
	}
	if out.Src.Port != want {
		t.Errorf("fallback port = %d, want seeded cursor %d", out.Src.Port, want)
	}
	src2 := netaddr.MustParseEndpoint("100.64.0.6:81")
	out2, _ := n.TranslateOut(flowUDP(src2, dstEP), t0)
	if out2.Src.Port != want+1 {
		t.Errorf("second fallback port = %d, want %d", out2.Src.Port, want+1)
	}
}

// TestPortRecyclingUnderExhaustion fills a small pool to exhaustion,
// expires everything, and asserts the freed ports are fully reallocatable
// with consistent free counters — across all four allocation policies.
func TestPortRecyclingUnderExhaustion(t *testing.T) {
	for _, alloc := range []PortAlloc{Preservation, Sequential, Random, RandomChunk} {
		t.Run(alloc.String(), func(t *testing.T) {
			cfg := baseConfig()
			cfg.Type = Symmetric // one mapping per destination
			cfg.PortAlloc = alloc
			cfg.ChunkSize = 64
			cfg.PortLo, cfg.PortHi = 1024, 1151 // 128 ports, 2 chunks
			n := New(cfg)

			fill := func(now time.Time) int {
				got := 0
				for i := 0; i < 256; i++ {
					dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, byte(i/250), byte(i%250+1)), 53)
					_, v := n.TranslateOut(flowUDP(intEP, dst), now)
					switch v {
					case Ok:
						got++
					case DropNoPorts:
						return got
					default:
						t.Fatalf("alloc %d: unexpected verdict %v", i, v)
					}
				}
				t.Fatal("pool never exhausted")
				return got
			}

			first := fill(t0)
			want := 128
			if alloc == RandomChunk {
				want = 64 // one subscriber is confined to its chunk
			}
			if first != want {
				t.Fatalf("filled %d ports, want %d", first, want)
			}
			st := n.PortStats()
			if st.InUse != first || st.NoPorts == 0 {
				t.Fatalf("after fill: InUse=%d NoPorts=%d, want %d and >0", st.InUse, st.NoPorts, first)
			}
			checkSpace(t, n.ports)

			later := t0.Add(3 * time.Minute)
			if swept := n.Sweep(later); swept != first {
				t.Fatalf("Sweep removed %d, want %d", swept, first)
			}
			if st := n.PortStats(); st.InUse != 0 {
				t.Fatalf("InUse after sweep = %d", st.InUse)
			}
			checkSpace(t, n.ports)

			// Freed ports must all be reallocatable.
			if second := fill(later); second != first {
				t.Fatalf("recycled %d ports, want %d", second, first)
			}
			if st := n.PortStats(); st.InUse != first || st.Peak != first {
				t.Fatalf("after refill: InUse=%d Peak=%d, want %d", st.InUse, st.Peak, first)
			}
			checkSpace(t, n.ports)
		})
	}
}

// TestSweepRefreshedMappingRescheduled pins the lazy-heap behavior: a
// refresh moves a mapping's true deadline past its heap entry, and Sweep
// must re-key the entry instead of dropping the mapping.
func TestSweepRefreshedMappingRescheduled(t *testing.T) {
	n := New(baseConfig()) // 60 s UDP timeout
	n.TranslateOut(flowUDP(intEP, dstEP), t0)
	// Refresh at t+50: deadline moves to t+110, heap entry still says t+60.
	n.TranslateOut(flowUDP(intEP, dstEP), t0.Add(50*time.Second))
	if got := n.Sweep(t0.Add(70 * time.Second)); got != 0 {
		t.Fatalf("Sweep dropped %d refreshed mappings", got)
	}
	if n.NumMappings() != 1 {
		t.Fatal("refreshed mapping lost")
	}
	if got := n.Sweep(t0.Add(111 * time.Second)); got != 1 {
		t.Fatalf("Sweep after true deadline removed %d, want 1", got)
	}
}

// TestSweepSkipsDeadEntries: mappings dropped inline (expired on lookup)
// leave stale heap entries; Sweep must skip them without double-freeing.
func TestSweepSkipsDeadEntries(t *testing.T) {
	n := New(baseConfig())
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	// Inline expiry via TranslateIn at t+2m drops the mapping.
	if _, v := n.TranslateIn(flowUDP(dstEP, out.Src), t0.Add(2*time.Minute)); v != DropNoMapping {
		t.Fatalf("verdict = %v", v)
	}
	if got := n.Sweep(t0.Add(3 * time.Minute)); got != 0 {
		t.Fatalf("Sweep re-removed %d dead mappings", got)
	}
	if st := n.PortStats(); st.InUse != 0 {
		t.Fatalf("InUse = %d after dead-entry sweep", st.InUse)
	}
}

// TestSweepBoundary: a mapping is not expired at exactly
// LastActive+timeout (expired() is strict), and Sweep must agree.
func TestSweepBoundary(t *testing.T) {
	n := New(baseConfig()) // 60 s
	n.TranslateOut(flowUDP(intEP, dstEP), t0)
	if got := n.Sweep(t0.Add(60 * time.Second)); got != 0 {
		t.Errorf("Sweep at the exact deadline removed %d", got)
	}
	if got := n.Sweep(t0.Add(60*time.Second + time.Nanosecond)); got != 1 {
		t.Errorf("Sweep past the deadline removed %d, want 1", got)
	}
}

// TestPortQuota exercises the per-subscriber port quota: the distinct
// DropPortQuota verdict, independence across subscribers, and recycling
// after expiry.
func TestPortQuota(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	cfg.PortAlloc = Random
	cfg.PortQuotaPerSubscriber = 2
	n := New(cfg)
	for i := 0; i < 2; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, 8, byte(i+1)), 53)
		if _, v := n.TranslateOut(flowUDP(intEP, dst), t0); v != Ok {
			t.Fatalf("alloc %d: %v", i, v)
		}
	}
	dst := netaddr.MustParseEndpoint("8.8.9.1:53")
	if _, v := n.TranslateOut(flowUDP(intEP, dst), t0); v != DropPortQuota {
		t.Fatalf("verdict = %v, want DropPortQuota", v)
	}
	// Another subscriber has its own quota.
	other := netaddr.MustParseEndpoint("100.64.0.9:4000")
	if _, v := n.TranslateOut(flowUDP(other, dst), t0); v != Ok {
		t.Fatalf("other subscriber blocked: %v", v)
	}
	if st := n.PortStats(); st.QuotaDrops != 1 || st.Failures() != 1 {
		t.Errorf("stats = %+v, want 1 quota drop", st)
	}
	// Expiry releases quota.
	later := t0.Add(2 * time.Minute)
	n.Sweep(later)
	if _, v := n.TranslateOut(flowUDP(intEP, dst), later); v != Ok {
		t.Errorf("post-expiry alloc blocked: %v", v)
	}
}

// TestPortStatsSnapshot covers the remaining PortStats accounting.
func TestPortStatsSnapshot(t *testing.T) {
	cfg := baseConfig()
	cfg.ExternalIPs = []netaddr.Addr{extIP, extIP2}
	cfg.PortLo, cfg.PortHi = 1024, 2047
	n := New(cfg)
	for i := 0; i < 3; i++ {
		src := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, 0, byte(i+1)), 5000)
		n.TranslateOut(flowUDP(src, dstEP), t0)
	}
	st := n.PortStats()
	// 1024 ports x 2 IPs x 2 transport protocols (UDP, TCP).
	if st.ExternalIPs != 2 || st.Capacity != 4096 {
		t.Errorf("pool shape = %d IPs / %d capacity", st.ExternalIPs, st.Capacity)
	}
	if st.Subscribers != 3 || st.InUse != 3 || st.Peak != 3 || st.Allocs != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.FailureRate() != 0 {
		t.Errorf("failure rate = %v, want 0", st.FailureRate())
	}
	n.Sweep(t0.Add(3 * time.Minute))
	st = n.PortStats()
	if st.InUse != 0 || st.Peak != 3 || st.Subscribers != 3 {
		t.Errorf("post-sweep stats = %+v: peak and subscribers must persist", st)
	}
	if got := st.Utilization(); got != 3.0/4096 {
		t.Errorf("utilization = %v", got)
	}
}
