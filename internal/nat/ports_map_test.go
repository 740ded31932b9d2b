package nat

import (
	"cgn/internal/fastrand"
	"cgn/internal/netaddr"
)

// mapPortSpace is the original map-of-used-ports allocator, kept as the
// reference implementation: the differential tests assert that the bitmap
// engine makes draw-for-draw identical decisions, and the allocator
// benchmarks measure the bitmap's speedup against it. It is not used on
// any production path — per-allocation cost degrades to O(range) map
// probes as the pool fills.
type mapPortSpace struct {
	lo, hi uint16
	used   map[portKey]bool
	// seqNext holds the next candidate port for Sequential allocation;
	// seqSeeded marks cursors the engine positioned explicitly.
	seqNext   map[seqKey]uint16
	seqSeeded map[seqKey]bool
	// freeCnt mirrors the bitmap engine's per-segment free counters so
	// both implementations short-circuit exhausted full-range allocations
	// without consuming the RNG — a draw-for-draw parity requirement of
	// the differential tests.
	freeCnt map[seqKey]int
}

type portKey struct {
	ip    netaddr.Addr
	proto netaddr.Proto
	port  uint16
}

// seqKey keys the reference allocator's per-(IP, protocol) maps. (The
// bitmap engine packs the pair into one word instead — see segKey.)
type seqKey struct {
	ip    netaddr.Addr
	proto netaddr.Proto
}

func newMapPortSpace(lo, hi uint16) *mapPortSpace {
	return &mapPortSpace{
		lo: lo, hi: hi,
		used:      make(map[portKey]bool),
		seqNext:   make(map[seqKey]uint16),
		seqSeeded: make(map[seqKey]bool),
		freeCnt:   make(map[seqKey]int),
	}
}

// segFree returns the free-port count for (ip, proto), lazily initialized
// to the full range.
func (s *mapPortSpace) segFree(ip netaddr.Addr, p netaddr.Proto) int {
	k := seqKey{ip, p}
	n, ok := s.freeCnt[k]
	if !ok {
		n = s.size()
		s.freeCnt[k] = n
	}
	return n
}

func (s *mapPortSpace) size() int { return int(s.hi) - int(s.lo) + 1 }

func (s *mapPortSpace) isFree(ip netaddr.Addr, p netaddr.Proto, port uint16) bool {
	return !s.used[portKey{ip, p, port}]
}

func (s *mapPortSpace) take(ip netaddr.Addr, p netaddr.Proto, port uint16) {
	k := portKey{ip, p, port}
	if s.used[k] {
		return
	}
	s.used[k] = true
	s.freeCnt[seqKey{ip, p}] = s.segFree(ip, p) - 1
}

func (s *mapPortSpace) free(e netaddr.Endpoint, p netaddr.Proto) {
	k := portKey{e.Addr, p, e.Port}
	if !s.used[k] {
		return
	}
	delete(s.used, k)
	s.freeCnt[seqKey{e.Addr, p}]++
}

func (s *mapPortSpace) takePreferred(ip netaddr.Addr, p netaddr.Proto, want uint16, rng *fastrand.Rand) (uint16, bool) {
	if want < s.lo || want > s.hi {
		seedSequentialMidCycle(s, s.lo, ip, p, rng)
		return s.takeSequential(ip, p)
	}
	port := want
	for i := 0; i < s.size(); i++ {
		if s.isFree(ip, p, port) {
			s.take(ip, p, port)
			return port, true
		}
		if port == s.hi {
			port = s.lo
		} else {
			port++
		}
	}
	return 0, false
}

func (s *mapPortSpace) seedSequential(ip netaddr.Addr, p netaddr.Proto, start uint16) {
	k := seqKey{ip, p}
	if !s.seqSeeded[k] && start >= s.lo && start <= s.hi {
		s.seqNext[k] = start
		s.seqSeeded[k] = true
	}
}

func (s *mapPortSpace) sequentialSeeded(ip netaddr.Addr, p netaddr.Proto) bool {
	return s.seqSeeded[seqKey{ip, p}]
}

func (s *mapPortSpace) takeSequential(ip netaddr.Addr, p netaddr.Proto) (uint16, bool) {
	k := seqKey{ip, p}
	start, ok := s.seqNext[k]
	if !ok || start < s.lo || start > s.hi {
		start = s.lo
	}
	port := start
	for i := 0; i < s.size(); i++ {
		if s.isFree(ip, p, port) {
			s.take(ip, p, port)
			next := port + 1
			if next > s.hi || next < s.lo {
				next = s.lo
			}
			s.seqNext[k] = next
			s.seqSeeded[k] = true
			return port, true
		}
		if port == s.hi {
			port = s.lo
		} else {
			port++
		}
	}
	return 0, false
}

func (s *mapPortSpace) takeRandom(ip netaddr.Addr, p netaddr.Proto, rng *fastrand.Rand) (uint16, bool) {
	return s.takeRandomIn(ip, p, s.lo, s.hi, rng)
}

func (s *mapPortSpace) takeRandomIn(ip netaddr.Addr, p netaddr.Proto, lo, hi uint16, rng *fastrand.Rand) (uint16, bool) {
	if lo < s.lo {
		lo = s.lo
	}
	if hi > s.hi {
		hi = s.hi
	}
	if lo > hi {
		return 0, false
	}
	if lo == s.lo && hi == s.hi && s.segFree(ip, p) == 0 {
		return 0, false
	}
	span := int(hi) - int(lo) + 1
	for i := 0; i < 32; i++ {
		port := lo + uint16(rng.Intn(uint32(span)))
		if s.isFree(ip, p, port) {
			s.take(ip, p, port)
			return port, true
		}
	}
	offset := int(rng.Intn(uint32(span)))
	for i := 0; i < span; i++ {
		port := lo + uint16((offset+i)%span)
		if s.isFree(ip, p, port) {
			s.take(ip, p, port)
			return port, true
		}
	}
	return 0, false
}
