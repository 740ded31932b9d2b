package nat

import (
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cgn/internal/netaddr"
)

// sliceQueue models the expiry queue as one plain slice per deadline:
// the block chains must hold the same entries in the same push order.
type sliceQueue map[int64][]expEntry

func (mq sliceQueue) push(at int64, m *Mapping, gen uint64) {
	mq[at] = append(mq[at], expEntry{m: m, gen: gen})
}

// take removes and returns the earliest bucket.
func (mq sliceQueue) take() (int64, []expEntry) {
	first := true
	var at int64
	for k := range mq {
		if first || k < at {
			at, first = k, false
		}
	}
	b := mq[at]
	delete(mq, at)
	return at, b
}

// evictOldest is NAT.evictOldest over the model: it returns the victim
// without dropping it, re-pushing every entry it passes over as the
// NAT does.
func (mq sliceQueue) evictOldest(timeout int64) *Mapping {
	for len(mq) > 0 {
		at, b := mq.take()
		var victim *Mapping
		for _, e := range b {
			if e.m.dead || e.m.gen != e.gen {
				continue
			}
			switch d := e.m.lastActive + timeout; {
			case d > at:
				mq.push(d, e.m, e.gen)
			case victim == nil || evictionKey(e.m) < evictionKey(victim):
				if victim != nil {
					mq.push(victim.lastActive+timeout, victim, victim.gen)
				}
				victim = e.m
			default:
				mq.push(d, e.m, e.gen)
			}
		}
		if victim != nil {
			return victim
		}
	}
	return nil
}

// chainOf lists the entries of the chain starting at block b.
func chainOf(q *expQueue, b int32) []expEntry {
	var out []expEntry
	for ; b >= 0; b = q.blocks[b].next {
		out = append(out, q.blocks[b].e...)
	}
	return out
}

// bucketsOf lists q's buckets by deadline and checks the storage's
// shape: each chain runs from its head to its tail through blocks of 1,
// 2, 4, ... expBlockMax entries, all full but the tail, which is not
// empty; every free block is empty and on its size's list; and every
// block sits in exactly one chain or free list.
func bucketsOf(t *testing.T, q *expQueue) sliceQueue {
	t.Helper()
	out := sliceQueue{}
	owner := make([]bool, len(q.blocks))
	claim := func(b int32) {
		if owner[b] {
			t.Fatalf("block %d is on two lists", b)
		}
		owner[b] = true
	}
	for _, s := range q.slots {
		if !s.used {
			continue
		}
		size, last := 1, int32(-1)
		for b := s.head; b >= 0; b = q.blocks[b].next {
			claim(b)
			e := q.blocks[b].e
			if cap(e) != size || len(e) == 0 || (b != s.tail && len(e) != cap(e)) {
				t.Fatalf("bucket %d: block %d holds %d of %d entries, want a full block of %d (or a non-empty tail)", s.at, b, len(e), cap(e), size)
			}
			size, last = min(2*size, expBlockMax), b
		}
		if last != s.tail {
			t.Fatalf("bucket %d: chain ends at block %d, tail is %d", s.at, last, s.tail)
		}
		out[s.at] = chainOf(q, s.head)
	}
	for c, b := range q.free {
		for ; b >= 0; b = q.blocks[b].next {
			claim(b)
			if e := q.blocks[b].e; len(e) != 0 || cap(e) != 1<<c {
				t.Fatalf("free list %d holds block %d with %d of %d entries", c, b, len(e), cap(e))
			}
		}
	}
	if i := slices.Index(owner, false); i >= 0 {
		t.Fatalf("block %d is on no list", i)
	}
	if len(out) != q.n || len(q.times) != q.n {
		t.Fatalf("%d buckets, index count %d, heap %d", len(out), q.n, len(q.times))
	}
	return out
}

// TestExpQueueMatchesSliceModel drives a NAT's expiry queue and a
// plain-slice model of it through rounds of random openings and
// refreshes, Sweep-style drains that re-push refreshed entries and drop
// idle mappings, and evictOldest. Deadlines come two ways: few, every
// mapping of a round stamped at one instant (a tick: thousands to a
// bucket), or many, each stamped a microsecond apart (one to a bucket).
// Every drained bucket must match the model's entries in order, every
// eviction must take the model's victim, and after every round the
// whole schedule must match the model with its storage in shape.
func TestExpQueueMatchesSliceModel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int // most mappings opened a round
		step  time.Duration
	}{
		{"few", 3000, 0},
		{"many", 300, time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.PortAlloc = Random
			n := New(cfg)
			q := &n.exp
			model := sliceQueue{}
			timeout := int64(cfg.UDPTimeout)
			rng := rand.New(rand.NewSource(1))
			var live []*Mapping
			now, sub := t0, 0
			for round := 0; round < 40; round++ {
				for i, k := 0, 1+rng.Intn(tc.batch); i < k; i++ {
					at := now.Add(time.Duration(i) * tc.step)
					m, v := n.translateOut(flowUDP(netaddr.EndpointOf(subAddr(sub), 4000), dstEP), at)
					if v != Ok {
						t.Fatalf("round %d: open: %v", round, v)
					}
					sub++
					model.push(at.UnixNano()+timeout, m, m.gen)
					live = append(live, m)
				}
				live = slices.DeleteFunc(live, func(m *Mapping) bool { return m.dead })
				for i, m := range live {
					if rng.Intn(3) == 0 {
						m.lastActive = max(m.lastActive, now.Add(time.Duration(i)*tc.step).UnixNano())
					}
				}
				now = now.Add(30 * time.Second)
				nowNano := now.UnixNano()
				for len(q.times) > 0 && q.times[0] < nowNano {
					at, want := model.take()
					if q.times[0] != at {
						t.Fatalf("round %d: earliest deadline %d, model %d", round, q.times[0], at)
					}
					head := q.takeBucket()
					got := chainOf(q, head)
					if !slices.Equal(got, want) {
						t.Fatalf("round %d: bucket %d drained %d entries, model %d, or in another order", round, at, len(got), len(want))
					}
					for _, e := range got {
						if e.m.dead || e.m.gen != e.gen {
							continue
						}
						deadline := e.m.lastActive + timeout
						if nowNano > deadline {
							n.drop(e.m)
							continue
						}
						q.push(deadline, e.m, e.gen)
						model.push(deadline, e.m, e.gen)
					}
					q.release(head)
				}
				if round%3 == 2 {
					victim := model.evictOldest(timeout)
					if n.evictOldest() != (victim != nil) || (victim != nil && !victim.dead) {
						t.Fatalf("round %d: evictOldest did not take the model's victim", round)
					}
				}
				if got := bucketsOf(t, q); !maps.EqualFunc(got, model, slices.Equal[[]expEntry]) {
					t.Fatalf("round %d: %d buckets differ from the model's %d", round, len(got), len(model))
				}
			}
		})
	}
}

// scheduled counts the entries in q's buckets.
func scheduled(q *expQueue) int {
	k := 0
	for _, s := range q.slots {
		if s.used {
			k += len(chainOf(q, s.head))
		}
	}
	return k
}

// TestLaneDayStorage ramps one metro-sized lane through a day (laneDay)
// and bounds what its churn storage allocates. Expiry blocks are never
// freed, so what they hold is what they cost: at most twice the most
// entries ever scheduled at once (2 × peak × 16 B). The freelist holds
// at most twice the most structs ever free at once (2 × peak × 8 B),
// and it must have grown by doubling from firstSlab, so the arrays it
// outgrew add up to less than its final size; append's 1.25× steps
// would have copied it many times over. Past the day's peak, a churn
// tick allocates nothing.
func TestLaneDayStorage(t *testing.T) {
	d := newLaneDay(1)
	peakSched, peakFree := 0, 0
	for d.tick < laneDayTicks {
		d.sweep()
		// Sweep only drops and newMapping only pops, so the freelist
		// peaks here.
		peakSched, peakFree = max(peakSched, scheduled(&d.n.exp)), max(peakFree, len(d.n.freeMaps))
		d.churn()
		peakSched = max(peakSched, scheduled(&d.n.exp))
	}
	blocks := 0
	for _, b := range d.n.exp.blocks {
		blocks += cap(b.e)
	}
	if blocks > 2*peakSched {
		t.Errorf("expiry blocks hold %d entries, above twice the peak of %d scheduled", blocks, peakSched)
	}
	free := cap(d.n.freeMaps)
	if free%firstSlab != 0 || bits.OnesCount(uint(free/firstSlab)) != 1 {
		t.Errorf("freelist holds %d structs, not firstSlab (%d) doubled", free, firstSlab)
	}
	if free > 2*peakFree {
		t.Errorf("freelist holds %d structs, above twice the peak of %d free", free, peakFree)
	}
	t.Logf("expiry blocks hold %d entries for a peak of %d scheduled; the freelist %d structs for a peak of %d free", blocks, peakSched, free, peakFree)
	if allocs := testing.AllocsPerRun(24, func() {
		d.sweep()
		d.churn()
	}); allocs != 0 {
		t.Errorf("a warm churn tick allocates %v times, want 0", allocs)
	}
}

// TestFreelistLIFO takes a two-IP NAT holding 70,000 mappings dark with
// DropMatching(nil), as a lane going down does, and requires newMapping
// to hand every struct back last in first out, then carve a fresh one.
func TestFreelistLIFO(t *testing.T) {
	cfg := baseConfig()
	cfg.Type, cfg.PortAlloc = Symmetric, Random
	cfg.ExternalIPs = []netaddr.Addr{extIP, extIP2}
	n := New(cfg)
	const k = 70000
	for i := 0; i < k; i++ {
		if _, v := n.TranslateOut(flowUDP(netaddr.EndpointOf(subAddr(i), 4000), dstEP), t0); v != Ok {
			t.Fatalf("mapping %d: %v", i, v)
		}
	}
	var dropped []*Mapping
	if got := n.DropMatching(func(m *Mapping) bool {
		dropped = append(dropped, m)
		return true
	}); got != k {
		t.Fatalf("DropMatching dropped %d, want %d", got, k)
	}
	for i := k - 1; i >= 0; i-- {
		if m := n.newMapping(); m != dropped[i] {
			t.Fatalf("reuse %d returned another struct than the one dropped %d", k-1-i, i)
		}
	}
	if m := n.newMapping(); slices.Contains(dropped, m) {
		t.Fatal("an empty freelist returned a dropped struct")
	}
}
