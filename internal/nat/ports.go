package nat

import (
	"math/bits"

	"cgn/internal/fastrand"
	"cgn/internal/netaddr"
)

// portAllocator is the contract between the NAT engine and a port-space
// implementation. Two implementations exist: the bitmap-based portSpace
// (the production engine) and mapPortSpace, the original map-of-used-ports
// reference that the differential tests and the speedup benchmarks compare
// against.
type portAllocator interface {
	size() int
	isFree(ip netaddr.Addr, p netaddr.Proto, port uint16) bool
	take(ip netaddr.Addr, p netaddr.Proto, port uint16)
	free(e netaddr.Endpoint, p netaddr.Proto)
	takePreferred(ip netaddr.Addr, p netaddr.Proto, want uint16, rng *fastrand.Rand) (uint16, bool)
	takeSequential(ip netaddr.Addr, p netaddr.Proto) (uint16, bool)
	takeRandom(ip netaddr.Addr, p netaddr.Proto, rng *fastrand.Rand) (uint16, bool)
	takeRandomIn(ip netaddr.Addr, p netaddr.Proto, lo, hi uint16, rng *fastrand.Rand) (uint16, bool)
	seedSequential(ip netaddr.Addr, p netaddr.Proto, start uint16)
	sequentialSeeded(ip netaddr.Addr, p netaddr.Proto) bool
}

// portSpace tracks allocated external ports per (external IP, protocol) as
// bitmaps with free-counters. Every policy bottoms out in word-wide scans
// (64 ports per probe) instead of per-port map lookups, so allocation cost
// stays flat as the pool fills: take/free are O(1), the collision scans are
// O(range/64) worst case, and a fully exhausted segment fails in O(1) via
// its free counter. A segment's bitmap is stored in blocks allocated on
// first use (portSeg), so a space costs what its taken ports touch, not
// what its range spans.
type portSpace struct {
	lo, hi uint16
	// Segments are stored as parallel packed-key/value slices scanned
	// linearly: a space holds one segment per (external IP, protocol)
	// actually used — two for a single-IP NAT, a dozen for a pooled CGN —
	// so a scan over a cache line or two of packed keys beats a map
	// probe, and the allocation hot path hits the front entries.
	segKeys []uint64
	segVals []*portSeg

	// inUse / peak count taken ports across all segments; peak is the
	// high-water mark the utilization reports use.
	inUse, peak int
}

// Block geometry of a segment's bitmap: a block holds blockWords words
// (4,096 ports, 512 B), and maxBlocks blocks cover the whole 16-bit port
// space.
const (
	blockShift = 12
	blockWords = 1 << (blockShift - 6)
	maxBlocks  = 1 << (16 - blockShift)
)

// portBlock is one block of a segment's bitmap.
type portBlock [blockWords]uint64

// portSeg is one (external IP, protocol) bit-space. Bit i covers port
// lo+i; a set bit means taken. Bit i lives in blocks[i>>blockShift],
// which the first take inside it allocates and which is kept from then
// on; an absent block reads as all-free. A home NAT holding a few ports
// thus pays for one or two 512-byte blocks where a flat bitmap over the
// default range costs 8 KB, and every scan, counter and cursor keeps the
// flat bitmap's bit semantics.
type portSeg struct {
	blocks [maxBlocks]*portBlock
	// free counts clear bits, for O(1) exhaustion verdicts on full-range
	// allocations.
	free int
	// seq is the Sequential cursor (a bit index); seeded marks whether the
	// engine has positioned it. A long-running NAT allocates mid-cycle,
	// not from the bottom of the range.
	seq    int
	seeded bool
}

// segKey packs (external IP, protocol) into one comparable word.
func segKey(ip netaddr.Addr, p netaddr.Proto) uint64 {
	return uint64(ip)<<8 | uint64(p)
}

func newPortSpace(lo, hi uint16) *portSpace {
	return &portSpace{lo: lo, hi: hi}
}

// seedSequentialMidCycle positions the (ip, proto) sequential cursor
// uniformly in the allocatable range if it has none yet — a long-running
// NAT allocates mid-cycle, not from the bottom of the range. Both the
// Sequential policy and the Preservation out-of-range fallback seed
// through here, on either allocator implementation, so the draw cannot
// drift between the paths.
func seedSequentialMidCycle(a portAllocator, lo uint16, ip netaddr.Addr, p netaddr.Proto, rng *fastrand.Rand) {
	if !a.sequentialSeeded(ip, p) {
		a.seedSequential(ip, p, lo+uint16(rng.Intn(uint32(a.size()))))
	}
}

func (s *portSpace) size() int { return int(s.hi) - int(s.lo) + 1 }

// lookup returns the (ip, proto) segment, or nil if it was never used.
func (s *portSpace) lookup(ip netaddr.Addr, p netaddr.Proto) *portSeg {
	k := segKey(ip, p)
	for i, kk := range s.segKeys {
		if kk == k {
			return s.segVals[i]
		}
	}
	return nil
}

// seg returns the (ip, proto) segment, creating it on first use.
func (s *portSpace) seg(ip netaddr.Addr, p netaddr.Proto) *portSeg {
	g := s.lookup(ip, p)
	if g == nil {
		g = &portSeg{free: s.size()}
		s.segKeys = append(s.segKeys, segKey(ip, p))
		s.segVals = append(s.segVals, g)
	}
	return g
}

func (s *portSpace) isFree(ip netaddr.Addr, p netaddr.Proto, port uint16) bool {
	g := s.lookup(ip, p)
	if g == nil {
		return true
	}
	idx := int(port) - int(s.lo)
	if idx < 0 || idx >= s.size() {
		return true // out-of-range ports are never tracked, matching mapPortSpace
	}
	return !g.taken(idx)
}

func (s *portSpace) take(ip netaddr.Addr, p netaddr.Proto, port uint16) {
	g := s.seg(ip, p)
	idx := int(port) - int(s.lo)
	if idx < 0 || idx >= s.size() {
		return
	}
	if g.taken(idx) {
		return // already taken; keep the free counter honest
	}
	s.takeAt(g, idx)
}

func (s *portSpace) free(e netaddr.Endpoint, p netaddr.Proto) {
	g := s.lookup(e.Addr, p)
	if g == nil {
		return
	}
	idx := int(e.Port) - int(s.lo)
	if idx < 0 || idx >= s.size() {
		return
	}
	b := g.blocks[idx>>blockShift]
	w, bit := (idx>>6)&(blockWords-1), uint64(1)<<(uint(idx)&63)
	if b == nil || b[w]&bit == 0 {
		return
	}
	b[w] &^= bit
	g.free++
	s.inUse--
}

// word returns bitmap word w, the bits 64w to 64w+63; an absent block
// reads as all-free.
func (g *portSeg) word(w int) uint64 {
	if b := g.blocks[w>>(blockShift-6)]; b != nil {
		return b[w&(blockWords-1)]
	}
	return 0
}

// taken reports whether bit idx is set.
func (g *portSeg) taken(idx int) bool {
	return g.word(idx>>6)&(1<<(uint(idx)&63)) != 0
}

// scan returns the first clear bit index in [from, to], or ok=false.
func (g *portSeg) scan(from, to int) (int, bool) {
	w, last := from>>6, to>>6
	word := ^g.word(w) &^ ((1 << (uint(from) & 63)) - 1)
	for {
		if w == last {
			if k := uint(to) & 63; k != 63 {
				word &= (uint64(1) << (k + 1)) - 1
			}
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		if w == last {
			return 0, false
		}
		w++
		word = ^g.word(w)
	}
}

// nextFree returns the first clear bit at or after from within [lo, hi],
// wrapping to lo when the upper part is full.
func (g *portSeg) nextFree(from, lo, hi int) (int, bool) {
	if idx, ok := g.scan(from, hi); ok {
		return idx, true
	}
	if lo < from {
		return g.scan(lo, from-1)
	}
	return 0, false
}

// takeAt marks bit idx taken, allocating its block on first use, and
// maintains the counters.
func (s *portSpace) takeAt(g *portSeg, idx int) uint16 {
	b := g.blocks[idx>>blockShift]
	if b == nil {
		b = new(portBlock)
		g.blocks[idx>>blockShift] = b
	}
	b[(idx>>6)&(blockWords-1)] |= 1 << (uint(idx) & 63)
	g.free--
	s.inUse++
	if s.inUse > s.peak {
		s.peak = s.inUse
	}
	return s.lo + uint16(idx)
}

// takePreferred implements port preservation: use want if free; otherwise
// scan upward (wrapping) for the nearest free port, which yields the
// near-sequential fallback pattern real NATs exhibit under collision. A
// want outside the allocatable range falls back to the sequential policy,
// seeding its cursor mid-cycle first (a long-running NAT is not at the
// bottom of its range).
func (s *portSpace) takePreferred(ip netaddr.Addr, p netaddr.Proto, want uint16, rng *fastrand.Rand) (uint16, bool) {
	if want < s.lo || want > s.hi {
		seedSequentialMidCycle(s, s.lo, ip, p, rng)
		return s.takeSequential(ip, p)
	}
	g := s.seg(ip, p)
	if g.free == 0 {
		return 0, false
	}
	idx, ok := g.nextFree(int(want)-int(s.lo), 0, s.size()-1)
	if !ok {
		return 0, false
	}
	return s.takeAt(g, idx), true
}

// seedSequential positions the sequential cursor for (ip, proto) if it has
// no position yet.
func (s *portSpace) seedSequential(ip netaddr.Addr, p netaddr.Proto, start uint16) {
	if start < s.lo || start > s.hi {
		return
	}
	g := s.seg(ip, p)
	if !g.seeded {
		g.seq = int(start) - int(s.lo)
		g.seeded = true
	}
}

// sequentialSeeded reports whether the (ip, proto) cursor has a position.
func (s *portSpace) sequentialSeeded(ip netaddr.Addr, p netaddr.Proto) bool {
	g := s.lookup(ip, p)
	return g != nil && g.seeded
}

// takeSequential hands out ports in increasing order per (ip, proto),
// skipping ports still held by live mappings and wrapping at the top.
func (s *portSpace) takeSequential(ip netaddr.Addr, p netaddr.Proto) (uint16, bool) {
	g := s.seg(ip, p)
	if g.free == 0 {
		return 0, false
	}
	from := 0
	if g.seeded {
		from = g.seq
	}
	idx, ok := g.nextFree(from, 0, s.size()-1)
	if !ok {
		return 0, false
	}
	g.seq = idx + 1
	if g.seq >= s.size() {
		g.seq = 0
	}
	g.seeded = true
	return s.takeAt(g, idx), true
}

// takeRandom picks a uniformly random free port in the full range.
func (s *portSpace) takeRandom(ip netaddr.Addr, p netaddr.Proto, rng *fastrand.Rand) (uint16, bool) {
	return s.takeRandomIn(ip, p, s.lo, s.hi, rng)
}

// takeRandomIn picks a uniformly random free port in [lo, hi]. It tries
// random probes first and degrades to a scan from a random offset so
// allocation stays correct even when the range is nearly full. The probe
// schedule consumes the RNG exactly like the reference implementation, so
// both allocators stay draw-for-draw comparable under one seed.
func (s *portSpace) takeRandomIn(ip netaddr.Addr, p netaddr.Proto, lo, hi uint16, rng *fastrand.Rand) (uint16, bool) {
	if lo < s.lo {
		lo = s.lo
	}
	if hi > s.hi {
		hi = s.hi
	}
	if lo > hi {
		return 0, false
	}
	g := s.seg(ip, p)
	if lo == s.lo && hi == s.hi && g.free == 0 {
		return 0, false
	}
	span := int(hi) - int(lo) + 1
	base := int(lo) - int(s.lo)
	for i := 0; i < 32; i++ {
		idx := base + int(rng.Intn(uint32(span)))
		if !g.taken(idx) {
			return s.takeAt(g, idx), true
		}
	}
	offset := int(rng.Intn(uint32(span)))
	idx, ok := g.nextFree(base+offset, base, base+span-1)
	if !ok {
		return 0, false
	}
	return s.takeAt(g, idx), true
}

// chunkTable assigns each subscriber (internal IP) a fixed, contiguous
// block of the external port space on one external IP — the "chunk-based"
// allocation of §6.2 / Fig 8(c). Chunk size must be a power of two; the
// first chunk starts at the first multiple of the chunk size at or above
// the low port bound, matching vendor descriptions of block allocation.
type chunkTable struct {
	size uint16
	// first is the lowest chunk base and n the chunk count per external
	// IP: chunk i spans [first+i*size, first+i*size+size-1].
	first uint16
	n     int
	// assigned maps (external IP, subscriber), packed by chunkKey, to the
	// chunk base port.
	assigned map[uint64]uint16
	// ips and sets hold one chunkSet per external IP used, scanned
	// linearly like portSpace's segments: a pool holds a handful of IPs.
	ips  []netaddr.Addr
	sets []chunkSet
}

// chunkSet is one external IP's chunk occupancy. Bit i of taken covers
// chunk i; a set bit means assigned.
type chunkSet struct {
	taken []uint64
	// free counts unassigned chunks: a full IP refuses in O(1).
	free int
}

// chunkKey packs (external IP, subscriber) into one word, so assigned
// takes the runtime's fast64 map path.
func chunkKey(ip, subscriber netaddr.Addr) uint64 {
	return uint64(ip)<<32 | uint64(subscriber)
}

func newChunkTable(lo, hi, size uint16) *chunkTable {
	t := &chunkTable{size: size, assigned: make(map[uint64]uint16)}
	first := (int(lo) + int(size) - 1) / int(size) * int(size)
	if span := int(hi) - first + 1; span > 0 {
		t.first, t.n = uint16(first), span/int(size)
	}
	return t
}

// set returns ip's chunk set, creating it on first use.
func (t *chunkTable) set(ip netaddr.Addr) *chunkSet {
	for i, a := range t.ips {
		if a == ip {
			return &t.sets[i]
		}
	}
	t.ips = append(t.ips, ip)
	t.sets = append(t.sets, chunkSet{taken: make([]uint64, (t.n+63)/64), free: t.n})
	return &t.sets[len(t.sets)-1]
}

// takeNth assigns the k-th free chunk in ascending base order and
// returns its index. With k < s.free the k-th clear bit is a real chunk:
// the unused bits past the last chunk come after every real one.
func (s *chunkSet) takeNth(k int) int {
	for w, word := range s.taken {
		avail := ^word
		if c := bits.OnesCount64(avail); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			avail &= avail - 1
		}
		i := w<<6 + bits.TrailingZeros64(avail)
		s.take(i)
		return i
	}
	panic("nat: chunk set free count out of sync with its bitmap")
}

// take assigns chunk i, reporting false if it was already assigned.
func (s *chunkSet) take(i int) bool {
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	if s.taken[w]&bit != 0 {
		return false
	}
	s.taken[w] |= bit
	s.free--
	return true
}

// chunkFor returns the [lo, hi] port bounds of the subscriber's chunk on
// ip, assigning a random free chunk on first use. The draw picks among
// the free chunks in ascending base order, and a full IP refuses without
// drawing.
func (t *chunkTable) chunkFor(ip, subscriber netaddr.Addr, rng *fastrand.Rand) (uint16, uint16, bool) {
	k := chunkKey(ip, subscriber)
	if base, ok := t.assigned[k]; ok {
		return base, base + t.size - 1, true
	}
	s := t.set(ip)
	if s.free == 0 {
		return 0, 0, false
	}
	base := t.first + uint16(s.takeNth(int(rng.Intn(uint32(s.free)))))*t.size
	t.assigned[k] = base
	return base, base + t.size - 1, true
}

// numSubscribers returns how many subscribers hold a chunk on ip; the
// maximum is the paper's "users per public IP" figure (e.g. 64 at 1K
// chunks).
func (t *chunkTable) numSubscribers(ip netaddr.Addr) int {
	for i, a := range t.ips {
		if a == ip {
			return t.n - t.sets[i].free
		}
	}
	return 0
}
