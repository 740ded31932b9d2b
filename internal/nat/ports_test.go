package nat

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/netaddr"
)

func TestSequentialAllocationOrder(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric // one mapping per destination -> many allocations
	cfg.PortAlloc = Sequential
	cfg.PortLo, cfg.PortHi = 10000, 10010
	n := New(cfg)
	var ports []uint16
	for i := 0; i < 5; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, 0, byte(i+1)), 53)
		out, v := n.TranslateOut(flowUDP(intEP, dst), t0)
		if v != Ok {
			t.Fatalf("alloc %d: %v", i, v)
		}
		ports = append(ports, out.Src.Port)
	}
	// The cursor starts at a random position (a long-running NAT is
	// mid-cycle); from there allocations are strictly sequential,
	// wrapping at the top of the range.
	for i := 1; i < len(ports); i++ {
		want := ports[i-1] + 1
		if ports[i-1] == 10010 {
			want = 10000
		}
		if ports[i] != want {
			t.Errorf("ports[%d] = %d, want %d (sequence %v)", i, ports[i], want, ports)
		}
	}
	for _, p := range ports {
		if p < 10000 || p > 10010 {
			t.Errorf("port %d outside range", p)
		}
	}
}

func TestSequentialWrapsAndSkipsBusy(t *testing.T) {
	s := newPortSpace(100, 102)
	ip := extIP
	p1, _ := s.takeSequential(ip, netaddr.UDP)
	p2, _ := s.takeSequential(ip, netaddr.UDP)
	s.free(netaddr.EndpointOf(ip, p1), netaddr.UDP)
	p3, _ := s.takeSequential(ip, netaddr.UDP)
	p4, _ := s.takeSequential(ip, netaddr.UDP) // wraps, skips busy p2/p3
	if p1 != 100 || p2 != 101 || p3 != 102 || p4 != 100 {
		t.Errorf("sequence = %d,%d,%d,%d", p1, p2, p3, p4)
	}
	if _, ok := s.takeSequential(ip, netaddr.UDP); ok {
		t.Error("exhausted space should fail")
	}
}

func TestRandomAllocationUsesWholeSpace(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	cfg.PortAlloc = Random
	cfg.PortLo, cfg.PortHi = 1024, 65535
	n := New(cfg)
	lowHalf, highHalf := 0, 0
	for i := 0; i < 200; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, byte(i/250), byte(i%250), 1), 53)
		out, _ := n.TranslateOut(flowUDP(intEP, dst), t0)
		if out.Src.Port < 32768 {
			lowHalf++
		} else {
			highHalf++
		}
	}
	// The paper's Fig 8(a) signal: CGN-translated ports cover the whole
	// space, unlike OS ephemeral ranges. Both halves must be hit.
	if lowHalf == 0 || highHalf == 0 {
		t.Errorf("random allocation skewed: %d low, %d high", lowHalf, highHalf)
	}
}

func TestRandomInDegradedScan(t *testing.T) {
	s := newPortSpace(200, 203)
	rng := fastrand.Rand(1)
	got := map[uint16]bool{}
	for i := 0; i < 4; i++ {
		p, ok := s.takeRandomIn(extIP, netaddr.UDP, 200, 203, &rng)
		if !ok {
			t.Fatalf("allocation %d failed", i)
		}
		if got[p] {
			t.Fatalf("port %d allocated twice", p)
		}
		got[p] = true
	}
	if _, ok := s.takeRandomIn(extIP, netaddr.UDP, 200, 203, &rng); ok {
		t.Error("full range should fail")
	}
}

func TestRandomInClampsBounds(t *testing.T) {
	s := newPortSpace(1000, 2000)
	rng := fastrand.Rand(1)
	p, ok := s.takeRandomIn(extIP, netaddr.UDP, 0, 65535, &rng)
	if !ok || p < 1000 || p > 2000 {
		t.Errorf("clamped alloc = %d, %v", p, ok)
	}
	if _, ok := s.takeRandomIn(extIP, netaddr.UDP, 3000, 4000, &rng); ok {
		t.Error("disjoint range should fail")
	}
}

func TestPreservationOutOfRangeFallsBack(t *testing.T) {
	cfg := baseConfig()
	cfg.PortLo, cfg.PortHi = 10000, 20000
	n := New(cfg)
	src := netaddr.MustParseEndpoint("100.64.0.5:80") // below PortLo
	out, v := n.TranslateOut(flowUDP(src, dstEP), t0)
	if v != Ok {
		t.Fatalf("verdict = %v", v)
	}
	if out.Src.Port < 10000 || out.Src.Port > 20000 {
		t.Errorf("fallback port %d outside range", out.Src.Port)
	}
}

func TestChunkAllocationConfinesSubscriber(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	cfg.PortAlloc = RandomChunk
	cfg.ChunkSize = 4096
	n := New(cfg)
	var lo, hi uint16 = 65535, 0
	for i := 0; i < 50; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, byte(i), 1), 53)
		out, v := n.TranslateOut(flowUDP(intEP, dst), t0)
		if v != Ok {
			t.Fatalf("alloc %d: %v", i, v)
		}
		if out.Src.Port < lo {
			lo = out.Src.Port
		}
		if out.Src.Port > hi {
			hi = out.Src.Port
		}
	}
	// All ports must fall within one 4K-aligned chunk (Fig 8c).
	if int(hi)-int(lo) >= 4096 {
		t.Errorf("ports span %d..%d, exceeds chunk size", lo, hi)
	}
	if lo/4096 != hi/4096 {
		t.Errorf("ports cross chunk boundary: %d..%d", lo, hi)
	}
}

func TestChunkDistinctPerSubscriber(t *testing.T) {
	cfg := baseConfig()
	cfg.PortAlloc = RandomChunk
	cfg.ChunkSize = 1024
	n := New(cfg)
	chunkOf := func(sub netaddr.Endpoint) uint16 {
		out, v := n.TranslateOut(flowUDP(sub, dstEP), t0)
		if v != Ok {
			t.Fatalf("alloc for %v: %v", sub, v)
		}
		return out.Src.Port / 1024
	}
	seen := map[uint16]netaddr.Endpoint{}
	for i := 0; i < 20; i++ {
		sub := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, 1, byte(i)), 6881)
		c := chunkOf(sub)
		if prev, dup := seen[c]; dup {
			t.Fatalf("subscribers %v and %v share chunk %d", prev, sub, c)
		}
		seen[c] = sub
	}
}

func TestChunkStableAcrossFlows(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	cfg.PortAlloc = RandomChunk
	cfg.ChunkSize = 512
	n := New(cfg)
	first, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	second, _ := n.TranslateOut(flowUDP(intEP, dstEP2), t0)
	if first.Src.Port/512 != second.Src.Port/512 {
		t.Errorf("subscriber moved chunks: %d vs %d", first.Src.Port, second.Src.Port)
	}
}

func TestChunkExhaustion(t *testing.T) {
	// Port range 1024..5119 with 1024-chunks -> exactly 4 chunks.
	cfg := baseConfig()
	cfg.PortAlloc = RandomChunk
	cfg.ChunkSize = 1024
	cfg.PortLo, cfg.PortHi = 1024, 5119
	n := New(cfg)
	for i := 0; i < 4; i++ {
		sub := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, 2, byte(i)), 6881)
		if _, v := n.TranslateOut(flowUDP(sub, dstEP), t0); v != Ok {
			t.Fatalf("subscriber %d rejected: %v", i, v)
		}
	}
	sub := netaddr.MustParseEndpoint("100.64.2.99:6881")
	if _, v := n.TranslateOut(flowUDP(sub, dstEP), t0); v != DropNoPorts {
		t.Errorf("fifth subscriber verdict = %v, want DropNoPorts", v)
	}
	// Past exhaustion a refusal neither draws nor allocates.
	rng := n.rng
	allocs := testing.AllocsPerRun(100, func() {
		if _, v := n.TranslateOut(flowUDP(sub, dstEP), t0); v != DropNoPorts {
			t.Fatalf("refused subscriber verdict = %v, want DropNoPorts", v)
		}
	})
	if n.rng != rng {
		t.Errorf("refusals moved the random stream: %#x -> %#x", uint64(rng), uint64(n.rng))
	}
	if allocs != 0 {
		t.Errorf("a refusal allocates %v times", allocs)
	}
}

// refChunkTable is the chunk allocator as first written, kept as the
// reference the bitmap table must match draw for draw: every assignment
// enumerates the chunk bases and walks a taken map for the free ones.
type refChunkTable struct {
	lo, hi, size uint16
	assigned     map[[2]netaddr.Addr]uint16
	taken        map[refChunkBase]bool
}

type refChunkBase struct {
	ip   netaddr.Addr
	base uint16
}

func newRefChunkTable(lo, hi, size uint16) *refChunkTable {
	return &refChunkTable{
		lo: lo, hi: hi, size: size,
		assigned: make(map[[2]netaddr.Addr]uint16),
		taken:    make(map[refChunkBase]bool),
	}
}

// bases enumerates all chunk base ports.
func (t *refChunkTable) bases() []uint16 {
	var out []uint16
	start := (t.lo + t.size - 1) / t.size * t.size
	for base := start; base+(t.size-1) <= t.hi; base += t.size {
		out = append(out, base)
		if base+t.size < base { // wrapped
			break
		}
	}
	return out
}

func (t *refChunkTable) chunkFor(ip, subscriber netaddr.Addr, rng *fastrand.Rand) (uint16, uint16, bool) {
	k := [2]netaddr.Addr{ip, subscriber}
	if base, ok := t.assigned[k]; ok {
		return base, base + t.size - 1, true
	}
	var free []uint16
	for _, b := range t.bases() {
		if !t.taken[refChunkBase{ip, b}] {
			free = append(free, b)
		}
	}
	if len(free) == 0 {
		return 0, 0, false
	}
	base := free[rng.Intn(uint32(len(free)))]
	t.assigned[k] = base
	t.taken[refChunkBase{ip, base}] = true
	return base, base + t.size - 1, true
}

// bases lists the bitmap table's chunk bases in ascending order.
func (t *chunkTable) bases() []uint16 {
	out := make([]uint16, t.n)
	for i := range out {
		out[i] = t.first + uint16(i)*t.size
	}
	return out
}

// TestChunkTableMatchesReference drives the bitmap chunk table and the
// reference with one call sequence — random external IPs and random
// subscribers, new and returning, until every IP is exhausted and then
// some — and requires the same chunk, the same verdict and the same
// random stream after every call.
func TestChunkTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, size := range []uint16{128, 1024, 4096} {
		for trial, shape := range []string{"aligned", "unaligned", "unaligned-short"} {
			lo := size * uint16(1+r.Intn(3))
			if shape != "aligned" {
				lo += uint16(1 + r.Intn(int(size)-1))
			}
			hi := uint16(65535) // the top chunk ends at 65535: the wrap guard
			if shape == "unaligned-short" {
				hi = lo + uint16(int(size)*(3+r.Intn(8))+r.Intn(int(size)))
			}
			ips := make([]netaddr.Addr, 1+r.Intn(3))
			for i := range ips {
				ips[i] = netaddr.AddrFrom4(198, 51, 100, byte(i+1))
			}
			tab, ref := newChunkTable(lo, hi, size), newRefChunkTable(lo, hi, size)
			if got, want := tab.bases(), ref.bases(); !slices.Equal(got, want) {
				t.Fatalf("size %d [%d,%d]: bases %v, reference %v", size, lo, hi, got, want)
			}
			seed := fastrand.Rand(r.Uint64())
			rngTab, rngRef := seed, seed
			pop := 2 * tab.n * len(ips)
			for call := 0; call < 3*pop; call++ {
				ip := ips[r.Intn(len(ips))]
				sub := netaddr.AddrFrom4(100, 64, 0, 0) + netaddr.Addr(r.Intn(pop))
				gl, gh, gok := tab.chunkFor(ip, sub, &rngTab)
				wl, wh, wok := ref.chunkFor(ip, sub, &rngRef)
				if gl != wl || gh != wh || gok != wok || rngTab != rngRef {
					t.Fatalf("size %d [%d,%d] trial %d call %d (%v, %v): got (%d, %d, %v) rng %#x, reference (%d, %d, %v) rng %#x",
						size, lo, hi, trial, call, ip, sub, gl, gh, gok, uint64(rngTab), wl, wh, wok, uint64(rngRef))
				}
			}
			for _, ip := range ips {
				if got := tab.numSubscribers(ip); got != tab.n {
					t.Errorf("size %d [%d,%d]: %v holds %d of %d chunks, want exhausted", size, lo, hi, ip, got, tab.n)
				}
			}
		}
	}
}

func TestChunkMaxSubscribersPerIP(t *testing.T) {
	// 1K chunks over 1024..65535 yield 63 aligned chunks; the paper
	// derives 64 subscribers per IP for 1K chunks over the full space.
	tab := newChunkTable(1024, 65535, 1024)
	if got := len(tab.bases()); got != 63 {
		t.Errorf("1K chunks available = %d, want 63", got)
	}
	rng := fastrand.Rand(1)
	for i := 0; i < 63; i++ {
		sub := netaddr.AddrFrom4(100, 64, 3, byte(i))
		if _, _, ok := tab.chunkFor(extIP, sub, &rng); !ok {
			t.Fatalf("subscriber %d rejected", i)
		}
	}
	if tab.numSubscribers(extIP) != 63 {
		t.Errorf("numSubscribers = %d", tab.numSubscribers(extIP))
	}
}

// TestChunkTableAboveLastBoundary: when no multiple of the chunk size
// at or above PortLo leaves room for a whole chunk, the table has no
// chunks and refuses every subscriber without drawing. (The reference's
// uint16 arithmetic wraps there and lists bases below PortLo, whose
// subscribers get no port at all.)
func TestChunkTableAboveLastBoundary(t *testing.T) {
	tab := newChunkTable(65000, 65535, 1024)
	if tab.n != 0 {
		t.Fatalf("chunks = %d, want 0", tab.n)
	}
	rng := fastrand.Rand(1)
	if _, _, ok := tab.chunkFor(extIP, intEP.Addr, &rng); ok || rng != fastrand.Rand(1) {
		t.Errorf("chunkFor granted a chunk or drew: ok=%v rng=%#x", ok, uint64(rng))
	}
}

func TestPortExhaustionVerdict(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	cfg.PortAlloc = Sequential
	cfg.PortLo, cfg.PortHi = 30000, 30004 // 5 ports
	n := New(cfg)
	for i := 0; i < 5; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, 8, byte(i+1)), 53)
		if _, v := n.TranslateOut(flowUDP(intEP, dst), t0); v != Ok {
			t.Fatalf("alloc %d: %v", i, v)
		}
	}
	dst := netaddr.MustParseEndpoint("8.8.9.1:53")
	if _, v := n.TranslateOut(flowUDP(intEP, dst), t0); v != DropNoPorts {
		t.Errorf("verdict = %v, want DropNoPorts", v)
	}
}

func TestPreservationFullSpace(t *testing.T) {
	s := newPortSpace(100, 101)
	rng := fastrand.Rand(1)
	s.take(extIP, netaddr.UDP, 100)
	s.take(extIP, netaddr.UDP, 101)
	if _, ok := s.takePreferred(extIP, netaddr.UDP, 100, &rng); ok {
		t.Error("full space should fail")
	}
}

func TestPortSpacesPerIPIndependent(t *testing.T) {
	s := newPortSpace(1024, 65535)
	rng := fastrand.Rand(1)
	p1, _ := s.takePreferred(extIP, netaddr.UDP, 5000, &rng)
	p2, ok := s.takePreferred(extIP2, netaddr.UDP, 5000, &rng)
	if !ok || p1 != 5000 || p2 != 5000 {
		t.Errorf("same port on different IPs should both preserve: %d, %d", p1, p2)
	}
}

func TestStringers(t *testing.T) {
	if Symmetric.String() != "symmetric" || FullCone.String() != "full cone" ||
		PortRestricted.String() != "port-address restricted" ||
		AddressRestricted.String() != "address restricted" {
		t.Error("MappingType names")
	}
	if Preservation.String() != "preservation" || Sequential.String() != "sequential" ||
		Random.String() != "random" || RandomChunk.String() != "random-chunk" {
		t.Error("PortAlloc names")
	}
	if Paired.String() != "paired" || Arbitrary.String() != "arbitrary" {
		t.Error("Pooling names")
	}
	if HairpinOff.String() != "off" || HairpinTranslate.String() != "translate" ||
		HairpinPreserveSource.String() != "preserve-source" {
		t.Error("HairpinMode names")
	}
	for _, v := range []Verdict{Ok, DropNoMapping, DropFiltered, DropNoPorts, DropSessionLimit, DropHairpin} {
		if v.String() == "" {
			t.Error("verdict must render")
		}
	}
}

// Invariant check across a random workload: external endpoints are unique
// among live mappings, ports are within range, and session accounting
// matches live mapping counts.
func TestRandomWorkloadInvariants(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	cfg.PortAlloc = Random
	cfg.ExternalIPs = []netaddr.Addr{extIP, extIP2}
	cfg.UDPTimeout = 30 * time.Second
	n := New(cfg)
	rng := rand.New(rand.NewSource(42))
	now := t0
	for i := 0; i < 3000; i++ {
		src := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, byte(rng.Intn(4)), byte(rng.Intn(30))), uint16(1024+rng.Intn(60000)))
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, byte(rng.Intn(4)), byte(rng.Intn(10)), 1), 53)
		n.TranslateOut(flowUDP(src, dst), now)
		if rng.Intn(10) == 0 {
			now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
		}
		if rng.Intn(50) == 0 {
			n.Sweep(now)
		}
	}
	// Validate invariants over remaining live mappings.
	seen := map[netaddr.Endpoint]bool{}
	sessions := map[netaddr.Addr]int{}
	n.ForEachMapping(func(m *Mapping) {
		if seen[m.Ext] {
			t.Fatalf("duplicate external endpoint %v", m.Ext)
		}
		seen[m.Ext] = true
		if m.Ext.Port < 1024 {
			t.Fatalf("port %d below range", m.Ext.Port)
		}
		if m.Ext.Addr != extIP && m.Ext.Addr != extIP2 {
			t.Fatalf("external IP %v not in pool", m.Ext.Addr)
		}
		sessions[m.Int.Addr]++
	})
	for a, want := range sessions {
		if got := n.Sessions(a); got != want {
			t.Fatalf("session count for %v = %d, want %d", a, got, want)
		}
	}
	live := 0
	n.forEachSession(func(a netaddr.Addr, got int) {
		live++
		if want := sessions[a]; got != want {
			t.Fatalf("stale session count for %v = %d, want %d", a, got, want)
		}
	})
	if live != len(sessions) {
		t.Fatalf("table reports %d live subscribers, recount says %d", live, len(sessions))
	}
}
