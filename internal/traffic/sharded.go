package traffic

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// The intra-realm sharded engine, the only engine Run drives. One
// realm's work splits across the lanes of a nat.Sharded — one lane per
// external pool IP, subscribers pinned to lanes by address hash — and
// lanes group into shards, each driven by a persistent worker
// goroutine. A tick is a single parallel phase: every shard, over its
// owned lanes in ascending lane order, sweeps the lane, refreshes its
// live flows, draws the tick's arrivals from the lane's own RNG stream
// and applies them immediately, then folds its sampling buckets and
// port occupancy. There is no serial driver section — arrival
// generation is lane-confined, so nothing has to be drawn centrally or
// handed across shards.
//
// Arrivals are decoded by geometric skip-sampling (ForEachArrival): for
// each (lane, class) the decoder jumps straight from arriving subscriber
// to arriving subscriber, so a tick costs O(arrivals + live flows), not
// O(population) — at light per-subscriber rates (the common case) that
// is an order of magnitude fewer draws than one Poisson gate per
// subscriber.
//
// Determinism at any shard count follows from lane confinement: every
// operation on lane l — sweep, refreshes of l's subscribers ascending,
// l's arrival decode per class ascending — happens in a fixed order
// whatever shard drives it, and all RNG a lane consumes is its own
// stream, seeded in lane order from the realm RNG before the run.
// Shard-private accumulators merge in shard-index order, and all merged
// quantities are integers, so the merged realm output is identical at
// any shard count too.
type shardState struct {
	// lanes this shard owns (ascending); nsubs counts the subscribers
	// those lanes own and classSubs splits them by rate class.
	lanes     []int
	nsubs     int
	classSubs [3]int
	lc        *LiveCounts
	// Private accumulators, merged in shard-index order after the run.
	classHists [3]Hist
	allHist    Hist
	refreshes  uint64
	// inUse is the shard's per-tick port-occupancy fold over its owned
	// lanes; the driver sums the S values after the barrier instead of
	// assembling a full PortStats every tick.
	inUse int
	// active lists the shard's subscribers currently holding live flows,
	// ascending — the refresh loop's worklist, so a tick's cost scales
	// with flow-holding subscribers, not population. fresh collects the
	// tick's empty-to-nonempty transitions (sorted before the merge —
	// the per-lane, per-class arrival passes emit them out of global
	// subscriber order); scratch is the merge buffer the two swap
	// through.
	active, fresh, scratch []int32
	// The shard flow arena: the shard's subscribers' flow lists live in
	// one slice and dead nodes chain through the freelist, so
	// steady-state ticks never allocate (head/tail in subscriber index
	// into the owning shard's arena — well defined, a subscriber has
	// exactly one).
	arena    []flowNode
	freeHead int32
	// emit is the shard's arrival sink, allocated once at setup and
	// parameterized through curLane/curList/curLn/curFr so the per-tick
	// decode passes allocate nothing. atkEmit is its adversarial twin:
	// flood flows through the same decoder, but fire-and-forget (no
	// arena node, never refreshed).
	curLane int
	curList []int32
	curLn   *nat.NAT
	curFr   *FastRand
	emit    func(i, k int)
	atkEmit func(i, k int)
	// adv is the shard's adversarial accumulator, merged in shard-index
	// order after the run; zero when the profile offers no adversaries.
	adv advAccum
	// degA/degF are the shard's per-tick legitimate allocation
	// attempt/failure series — the E22 degradation curve's raw counts —
	// allocated only when the config schedules faults, so a fault-free
	// run carries no extra state.
	degA, degF []uint64
}

// FastRand is the engine's arrival-draw stream: a SplitMix64 generator,
// statistically sound for simulation draws at a fraction of math/rand's
// per-draw cost. Each lane owns one, so arrival draws are lane-confined
// and byte-identical at any shards × workers split.
type FastRand uint64

func (r *FastRand) Next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// Float64 returns a uniform variate in [0, 1).
func (r *FastRand) Float64() float64 {
	return float64(r.Next()>>11) * (1.0 / (1 << 53))
}

// OpenFloat64 returns a uniform variate in (0, 1] — the zero-excluding
// form the skip-sampling decoder feeds to log.
func (r *FastRand) OpenFloat64() float64 {
	return float64(r.Next()>>11+1) * (1.0 / (1 << 53))
}

// Intn returns a uniform variate in [0, n) by Lemire's multiply-shift.
func (r *FastRand) Intn(n uint32) uint32 {
	return uint32(uint64(uint32(r.Next())) * uint64(n) >> 32)
}

// Poisson draws a Poisson variate by Knuth's method. Rates are small (a
// few events per tick), so the loop stays short.
func (r *FastRand) Poisson(expNegLambda float64) int {
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= expNegLambda {
			return k
		}
		k++
		if k >= 1024 { // unreachable at sane rates; bounds a corrupt profile
			return k
		}
	}
}

// PoissonGE1 draws a Poisson(lambda) variate conditioned on being >= 1,
// by inversion on one uniform: the target is uniform on
// (exp(-lambda), 1] — the CDF mass above zero — and the walk adds terms
// of the Poisson pmf until the cumulative reaches it. Skip-sampling uses
// it for the flow count at a subscriber the geometric jump selected:
// selection already conditioned on "at least one arrival".
func (r *FastRand) PoissonGE1(lambda, expNegLambda float64) int {
	target := expNegLambda + r.OpenFloat64()*(1-expNegLambda)
	k := 0
	p := expNegLambda
	cum := p
	for cum < target && k < 1024 {
		k++
		p *= lambda / float64(k)
		cum += p
	}
	if k == 0 { // only reachable when 1-expNegLambda underflows to 0
		k = 1
	}
	return k
}

// ForEachArrival decodes one (lane, class, tick) arrival set by
// geometric skip-sampling over a list of n subscribers, calling
// emit(i, k) for each arriving position i (ascending) with its flow
// count k >= 1.
//
// The arrival process is: each subscriber independently receives
// Poisson(lambda) flows this tick, so it arrives (>= 1 flow) with
// probability p = 1 - exp(-lambda). Instead of gating all n subscribers,
// the decoder draws the geometric gap to the next arriving one —
// floor(log(u)/log(1-p)) failures before a success, and log(1-p) is
// exactly -lambda — then the conditional flow count at that position.
// Cost is O(arrivals + 1) draws, never worse than per-subscriber gating,
// and the emitted multiset follows the exact same distribution.
//
// n == 0 or lambda <= 0 consumes no draws. This decode IS the engine's
// arrival process (always on, no rate threshold); the
// differential test pins its jump arithmetic against a transparent
// per-subscriber walk over the same stream.
func ForEachArrival(r *FastRand, n int, lambda, expNegLambda float64, emit func(i, k int)) {
	if n <= 0 || lambda <= 0 {
		return
	}
	invLambda := 1 / lambda
	for i := 0; i < n; {
		g := -math.Log(r.OpenFloat64()) * invLambda
		if g >= float64(n-i) {
			return
		}
		i += int(g)
		emit(i, r.PoissonGE1(lambda, expNegLambda))
		i++
	}
}

// runRealmSharded drives one realm through every tick against a fresh
// sharded NAT built from the realm's configuration, accumulating into
// the realm's private realmOut.
func runRealmSharded(cfg Config, p Profile, spec RealmSpec, realmIdx int) *realmOut {
	// Mix the realm index into the seed with a 64-bit odd constant so
	// realms draw independent streams whatever their order. The realm RNG
	// serves the class draws and seeds the per-lane arrival streams; the
	// lanes draw allocation randomness from their own per-lane streams.
	rng := rand.New(rand.NewSource(cfg.Seed + int64(realmIdx+1)*-0x61c8864680b583eb))
	sn := nat.NewSharded(spec.NAT, cfg.Shards)
	S := sn.NumShards()
	out := &realmOut{
		stat: RealmStat{ID: spec.ID, Cellular: spec.Cellular, Subscribers: spec.Subscribers},
		util: make([]float64, p.Ticks),
	}

	// The compiled fault schedule: per-tick transitions the driver
	// applies serially between barriers. nil (and zero per-tick cost)
	// when the plan is empty.
	faulty := cfg.Faults.Enabled()
	var bounds map[int]*faultBoundary
	if faulty {
		bounds = cfg.Faults.boundaries(sn.NumLanes(), faultSalt(cfg.Seed, realmIdx))
		out.degA = make([]uint64, p.Ticks)
		out.degF = make([]uint64, p.Ticks)
	}

	var rates [3]float64
	for c := Class(0); c < numClasses; c++ {
		rates[c] = p.FlowsPerTick * ClassRate(p, c)
	}

	base := subscriberBase
	subs := buildSubscribers(rng, p, spec, base, &out.classSubs)
	numAtk := attackerCount(p, len(subs))
	markAttackers(subs, numAtk, &out.classSubs)
	attacks := p.AttacksEnabled()

	// Partition: lane l belongs to shard l % S; a subscriber belongs to
	// its lane's shard. laneOf memoizes the subscriber's current ACTIVE
	// lane — the address hash always, until a fault boundary re-pins
	// displaced subscribers to failover lanes. laneSubs lists each
	// lane's subscribers per class, ascending — the skip-sampling
	// decode's index space. Attackers land in laneAtk instead: they
	// receive no legitimate arrivals and stay out of the class census.
	shards := make([]*shardState, S)
	for s := range shards {
		shards[s] = &shardState{freeHead: -1}
	}
	for l := 0; l < sn.NumLanes(); l++ {
		st := shards[sn.ShardOf(l)]
		st.lanes = append(st.lanes, l)
	}
	laneOf := make([]int32, len(subs))
	laneSubs := make([][numClasses][]int32, sn.NumLanes())
	laneAtk := make([][]int32, sn.NumLanes())
	for j := range subs {
		l := sn.LaneFor(subs[j].addr)
		laneOf[j] = int32(l)
		if subs[j].attacker {
			laneAtk[l] = append(laneAtk[l], int32(j))
			continue
		}
		laneSubs[l][subs[j].class] = append(laneSubs[l][subs[j].class], int32(j))
		st := shards[sn.ShardOf(l)]
		st.nsubs++
		st.classSubs[subs[j].class]++
	}
	for _, st := range shards {
		st.lc = NewLiveCounts(st.classSubs)
		st.arena = make([]flowNode, 0, 4*st.nsubs)
		if faulty {
			st.degA = make([]uint64, p.Ticks)
			st.degF = make([]uint64, p.Ticks)
		}
	}

	// Per-lane mapping hooks maintain the owning shard's live-count
	// buckets. A hook fires on the goroutine driving its lane, and a
	// lane's mappings belong to subscribers of that lane's shard (the
	// fault-boundary re-pin pass keeps that invariant: a subscriber's
	// mappings never outlive a move off their lane), so the buckets stay
	// shard-confined. installHooks is a func because an engine restart
	// replaces sn wholesale and must re-arm the fresh lanes.
	installHooks := func() {
		for l := 0; l < sn.NumLanes(); l++ {
			st := shards[sn.ShardOf(l)]
			sn.Lane(l).SetMappingHooks(
				func(m *nat.Mapping) {
					if j := uint32(m.Int.Addr - base); j < uint32(len(subs)) {
						sub := &subs[j]
						if !sub.attacker {
							st.lc.Move(sub.class, sub.live, sub.live+1)
						}
						sub.live++
					}
				},
				func(m *nat.Mapping) {
					if j := uint32(m.Int.Addr - base); j < uint32(len(subs)) {
						sub := &subs[j]
						if !sub.attacker {
							st.lc.Move(sub.class, sub.live, sub.live-1)
						}
						sub.live--
					}
				},
			)
		}
	}
	installHooks()

	// Per-lane arrival streams, seeded from the realm RNG in lane order
	// — a fixed count of draws, independent of the shard partition —
	// plus a per-lane destination sequence. Destination collisions
	// across lanes are harmless (source addresses differ across lanes,
	// so 5-tuples stay distinct); within a lane the counter keeps them
	// distinct.
	frLane := make([]FastRand, sn.NumLanes())
	for l := range frLane {
		frLane[l] = FastRand(rng.Uint64())
	}
	dstSeq := make([]uint64, sn.NumLanes())
	holdSpan := uint32(2*p.FlowHoldTicks - 1)

	// Per-lane adversarial streams and flood destination sequences,
	// seeded only when the profile offers attacks — a disabled profile
	// consumes no extra realm-RNG draw, keeping zero-attacker runs
	// byte-identical to pre-adversarial builds. Flood rates are not
	// diurnal, so their λ terms hoist out of the tick loop entirely.
	var (
		atkFrLane               []FastRand
		atkSeqLane              []uint64
		floodLambda             float64
		expNegFlood, expNegScan float64
		scanLo, scanSpan        uint32
	)
	if attacks {
		atkFrLane = make([]FastRand, sn.NumLanes())
		for l := range atkFrLane {
			atkFrLane[l] = FastRand(rng.Uint64())
		}
		atkSeqLane = make([]uint64, sn.NumLanes())
		floodLambda = p.AttackerFlowsPerTick
		expNegFlood = math.Exp(-floodLambda)
		expNegScan = math.Exp(-p.ScannerProbesPerTick)
		eff := sn.Config()
		scanLo = uint32(eff.PortLo)
		scanSpan = uint32(eff.PortHi) - uint32(eff.PortLo) + 1
	}

	// Per-tick inputs: written by the driver goroutine before the start
	// barrier, read by shard workers after it (the channel send/receive
	// orders the accesses).
	var (
		curNow               time.Time
		curTick              int
		curLambda, curExpNeg [3]float64
	)

	// One arrival sink per shard, allocated once: ForEachArrival calls
	// it for every arriving subscriber of the pass set up in the cur*
	// fields. Hold spans 1..2*FlowHoldTicks-1 ticks.
	for _, st := range shards {
		st.atkEmit = func(i, k int) {
			sub := &subs[st.curList[i]]
			fr := st.curFr
			st.adv.attackerAttempts += uint64(k)
			for ; k > 0; k-- {
				atkSeqLane[st.curLane]++
				seq := atkSeqLane[st.curLane]
				f := netaddr.FlowOf(netaddr.UDP,
					netaddr.EndpointOf(sub.addr, uint16(1024+fr.Intn(64512))),
					netaddr.EndpointOf(atkDstBase+netaddr.Addr(uint32(seq)), uint16(9+(seq>>32))))
				if _, v := st.curLn.TranslateOut(f, curNow); v != nat.Ok {
					st.adv.attackerFailures++
				}
			}
		}
		st.emit = func(i, k int) {
			j := st.curList[i]
			sub := &subs[j]
			fr := st.curFr
			for ; k > 0; k-- {
				dstSeq[st.curLane]++
				seq := dstSeq[st.curLane]
				f := netaddr.FlowOf(netaddr.UDP,
					netaddr.EndpointOf(sub.addr, uint16(1024+fr.Intn(64512))),
					netaddr.EndpointOf(dstBase+netaddr.Addr(uint32(seq)), uint16(443+(seq>>32))))
				hold := 1 + fr.Intn(holdSpan)
				_, ref, v := st.curLn.TranslateOutRef(f, curNow)
				if attacks {
					st.adv.legitAttempts++
					if v != nat.Ok {
						st.adv.legitFailures++
					}
				}
				if st.degA != nil {
					st.degA[curTick]++
					if v != nat.Ok {
						st.degF[curTick]++
					}
				}
				if v == nat.Ok {
					var ni int32
					if st.freeHead >= 0 {
						ni = st.freeHead
						st.freeHead = st.arena[ni].next
					} else {
						st.arena = append(st.arena, flowNode{})
						ni = int32(len(st.arena) - 1)
					}
					st.arena[ni] = flowNode{f: f, ref: ref, ticksLeft: int32(hold), next: -1}
					if sub.tail >= 0 {
						st.arena[sub.tail].next = ni
					} else {
						sub.head = ni
						// Empty-to-nonempty: enters next tick's worklist.
						st.fresh = append(st.fresh, j)
					}
					sub.tail = ni
				}
			}
		}
	}

	// shardTick is one shard's whole tick: sweep owned lanes, refresh
	// owned subscribers' flows, decode and apply the tick's arrivals
	// lane by lane, fold the sampling buckets and port occupancy.
	shardTick := func(st *shardState) {
		now := curNow
		for _, l := range st.lanes {
			sn.Lane(l).Sweep(now)
		}
		// Refresh pass over the active worklist, compacting out
		// subscribers whose last flow died.
		act := st.active
		w := 0
		for _, ji := range act {
			sub := &subs[ji]
			ln := sn.Lane(int(laneOf[ji]))
			prev := int32(-1)
			for idx := sub.head; idx >= 0; {
				nd := &st.arena[idx]
				next := nd.next
				ok := ln.Refresh(nd.ref, nd.f.Dst, now)
				if !ok {
					var v nat.Verdict
					_, nd.ref, v = ln.TranslateOutRef(nd.f, now)
					ok = v == nat.Ok
					// A re-establishment is a legitimate allocation
					// attempt — during an outage this is exactly where
					// displaced flows hit the surviving lanes.
					if st.degA != nil {
						st.degA[curTick]++
						if !ok {
							st.degF[curTick]++
						}
					}
				}
				if ok {
					st.refreshes++
				}
				nd.ticksLeft--
				if nd.ticksLeft > 0 && ok {
					prev = idx
				} else {
					if prev >= 0 {
						st.arena[prev].next = next
					} else {
						sub.head = next
					}
					if next < 0 {
						sub.tail = prev
					}
					nd.next = st.freeHead
					st.freeHead = idx
				}
				idx = next
			}
			if sub.head >= 0 {
				act[w] = ji
				w++
			}
		}
		st.active = act[:w]
		// Arrivals: per owned lane ascending, per class ascending,
		// skip-sampled on the lane's stream and applied immediately —
		// the single-phase replacement for the old sequential driver.
		// The adversarial pass rides the same per-lane order, after the
		// legitimate classes, on the lane's own attack stream.
		for _, l := range st.lanes {
			st.curLane = l
			st.curLn = sn.Lane(l)
			st.curFr = &frLane[l]
			for c := Class(0); c < numClasses; c++ {
				if curLambda[c] <= 0 {
					continue
				}
				list := laneSubs[l][c]
				if len(list) == 0 {
					continue
				}
				st.curList = list
				ForEachArrival(st.curFr, len(list), curLambda[c], curExpNeg[c], st.emit)
			}
			if attacks {
				fr := &atkFrLane[l]
				st.curFr = fr
				if list := laneAtk[l]; len(list) > 0 && floodLambda > 0 {
					st.curList = list
					ForEachArrival(fr, len(list), floodLambda, expNegFlood, st.atkEmit)
				}
				// Scanner probes against this lane's external IP — the
				// lane-confined slice of the pool-wide sweep.
				if p.ScannerProbesPerTick > 0 {
					ip := sn.Config().ExternalIPs[l]
					for k := fr.Poisson(expNegScan); k > 0; k-- {
						probe := netaddr.FlowOf(netaddr.UDP,
							netaddr.EndpointOf(scannerAddr, uint16(1024+fr.Intn(64512))),
							netaddr.EndpointOf(ip, uint16(scanLo+fr.Intn(scanSpan))))
						st.adv.scannerProbes++
						if _, v := st.curLn.TranslateIn(probe, now); v != nat.Ok {
							st.adv.scannerBlocked++
						}
					}
				}
			}
		}
		// Merge the newly active. The per-lane, per-class passes emit
		// fresh out of global subscriber order, so sort first; entries
		// are unique (a subscriber goes empty-to-nonempty at most once a
		// tick) and disjoint from active.
		if len(st.fresh) > 0 {
			slices.Sort(st.fresh)
			sc := st.scratch[:0]
			i, k := 0, 0
			for i < len(st.active) && k < len(st.fresh) {
				if st.active[i] < st.fresh[k] {
					sc = append(sc, st.active[i])
					i++
				} else {
					sc = append(sc, st.fresh[k])
					k++
				}
			}
			sc = append(sc, st.active[i:]...)
			sc = append(sc, st.fresh[k:]...)
			st.active, st.scratch = sc, st.active[:0]
			st.fresh = st.fresh[:0]
		}
		st.lc.Fold(&st.classHists, &st.allHist)
		if attacks {
			// Attacker concurrent-port samples: walked directly — the
			// population is a small fraction of the shard, and its live
			// counts are hook-maintained like everyone else's.
			for _, l := range st.lanes {
				for _, j := range laneAtk[l] {
					st.adv.attackerHist.Add(int(subs[j].live))
				}
			}
		}
		inUse := 0
		for _, l := range st.lanes {
			inUse += sn.Lane(l).InUsePorts()
		}
		st.inUse = inUse
	}

	// applyFaults applies one tick's fault transitions. It runs on the
	// driver goroutine with every shard worker idle (before the start
	// barrier), so it may touch all lanes and all shard state — the same
	// license the aggregation phase has. Order: restorations, new
	// outages, restart, then one re-pin/repartition pass that restores
	// the two invariants the parallel phase rests on: a subscriber's
	// mappings live only on its active lane, and a subscriber is driven
	// by the shard owning that lane.
	applyFaults := func(fb *faultBoundary) {
		for _, l := range fb.ups {
			if sn.LaneDown(l) {
				sn.SetLaneUp(l)
				out.faultEvents++
			}
		}
		for _, l := range fb.downs {
			if d, ok := sn.SetLaneDown(l); ok {
				out.disrupted += uint64(d)
				out.faultEvents++
			}
		}
		if fb.restart {
			// The whole box reboots: every mapping is gone, but an
			// outage in progress survives the reboot (the pool IPs are
			// dark whatever the box does). Live flows keep their arena
			// nodes and re-establish through the refresh fallback; their
			// old refs must be cleared, not left dangling into the
			// discarded engine (a non-dead orphan would "refresh"
			// against a table that no longer owns it).
			out.disrupted += uint64(sn.NumMappings())
			out.faultEvents++
			downs := sn.DownLanes()
			sn = nat.NewSharded(spec.NAT, cfg.Shards)
			for l, d := range downs {
				if d {
					sn.SetLaneDown(l)
				}
			}
			installHooks()
			for j := range subs {
				subs[j].live = 0
			}
			for _, st := range shards {
				for i := range st.arena {
					st.arena[i].ref = nat.MappingRef{}
				}
			}
		}
		// Re-pin: compute every subscriber's new active lane, then drop
		// any mapping stranded on a lane its owner moved off (counted as
		// disrupted — the CGN re-homing the subscriber tears down its
		// old bindings). Lanes going down already dropped theirs.
		newLane := make([]int32, len(subs))
		for j := range subs {
			newLane[j] = int32(sn.ActiveLaneFor(subs[j].addr))
		}
		for l := 0; l < sn.NumLanes(); l++ {
			if sn.LaneDown(l) {
				continue
			}
			ll := int32(l)
			out.disrupted += uint64(sn.Lane(l).DropMatching(func(m *nat.Mapping) bool {
				j := uint32(m.Int.Addr - base)
				return j < uint32(len(subs)) && newLane[j] != ll
			}))
		}
		// Repartition wholesale: rebuild the per-lane subscriber lists,
		// the per-shard census, and — for subscribers changing shards —
		// move their flow chains into the new owner's arena. Everything
		// is rebuilt in ascending subscriber order from scratch, so the
		// result depends only on the new lane assignment, not on which
		// shard previously held what.
		for l := range laneSubs {
			for c := range laneSubs[l] {
				laneSubs[l][c] = laneSubs[l][c][:0]
			}
			laneAtk[l] = laneAtk[l][:0]
		}
		type rebuilt struct {
			arena  []flowNode
			active []int32
		}
		nw := make([]rebuilt, S)
		for s, st := range shards {
			st.nsubs, st.classSubs = 0, [3]int{}
			nw[s].arena = make([]flowNode, 0, cap(st.arena))
			nw[s].active = make([]int32, 0, cap(st.active))
		}
		for j := range subs {
			sub := &subs[j]
			oldSt := shards[sn.ShardOf(int(laneOf[j]))]
			l := int(newLane[j])
			// A subscriber changing lanes leaves dead mappings behind
			// (dropped above, or with the dark lane) — but the arena refs
			// still point into the old lane's slab. The dead/gen guard
			// would reject them anyway; clearing them here keeps the next
			// parallel phase from dereferencing another shard's slab
			// memory at all (the refresh fallback is identical either
			// way: a zero ref reports stale exactly like a dead one).
			moved := newLane[j] != laneOf[j]
			laneOf[j] = newLane[j]
			if sub.attacker {
				laneAtk[l] = append(laneAtk[l], int32(j))
			} else {
				laneSubs[l][sub.class] = append(laneSubs[l][sub.class], int32(j))
				st := shards[sn.ShardOf(l)]
				st.nsubs++
				st.classSubs[sub.class]++
			}
			if sub.head >= 0 {
				ns := sn.ShardOf(l)
				a := nw[ns].arena
				head, tail := int32(-1), int32(-1)
				for idx := sub.head; idx >= 0; idx = oldSt.arena[idx].next {
					nd := oldSt.arena[idx]
					if moved {
						nd.ref = nat.MappingRef{}
					}
					a = append(a, flowNode{f: nd.f, ref: nd.ref, ticksLeft: nd.ticksLeft, next: -1})
					ni := int32(len(a) - 1)
					if tail >= 0 {
						a[tail].next = ni
					} else {
						head = ni
					}
					tail = ni
				}
				nw[ns].arena = a
				sub.head, sub.tail = head, tail
				nw[ns].active = append(nw[ns].active, int32(j))
			}
		}
		for s, st := range shards {
			st.arena, st.freeHead = nw[s].arena, -1
			st.active = nw[s].active
			st.fresh, st.scratch = st.fresh[:0], st.scratch[:0]
			st.lc = NewLiveCounts(st.classSubs)
		}
		for j := range subs {
			sub := &subs[j]
			if !sub.attacker && sub.live > 0 {
				shards[sn.ShardOf(int(laneOf[j]))].lc.Move(sub.class, 0, sub.live)
			}
		}
	}

	// Persistent shard workers: S-1 goroutines spawned once for the
	// whole realm run. Each tick the driver publishes the tick inputs,
	// releases every worker through its start channel, runs shard 0
	// itself, then collects the done signals — a reusable two-phase
	// barrier in place of per-tick goroutine spawns and WaitGroups. The
	// channels are buffered so the driver never blocks on the fan-out.
	type shardWorker struct {
		start chan struct{}
		done  chan struct{}
	}
	var workers []shardWorker
	if S > 1 {
		workers = make([]shardWorker, S-1)
		for i := range workers {
			workers[i] = shardWorker{start: make(chan struct{}, 1), done: make(chan struct{}, 1)}
			go func(st *shardState, w *shardWorker) {
				for range w.start {
					shardTick(st)
					w.done <- struct{}{}
				}
			}(shards[i+1], &workers[i])
		}
	}

	// Pool capacity is immutable; hoist it so per-tick aggregation is a
	// sum of S integers instead of a full PortStats assembly.
	capacity := sn.PortStats().Capacity
	epoch := time.Unix(0, 0)
	for t := 0; t < p.Ticks; t++ {
		if fb := bounds[t]; fb != nil {
			applyFaults(fb)
		}
		curNow = epoch.Add(time.Duration(t) * p.TickStep)
		curTick = t
		df := DiurnalFactor(p, t)
		for c := range rates {
			curLambda[c] = rates[c] * df
			curExpNeg[c] = math.Exp(-curLambda[c])
		}
		for i := range workers {
			workers[i].start <- struct{}{}
		}
		shardTick(shards[0])
		for i := range workers {
			<-workers[i].done
		}

		// Aggregation, after the barrier. The engine generates UDP flows
		// only, so utilization divides by the UDP share of the capacity
		// (PortStats counts UDP and TCP segments); against the full
		// dual-protocol capacity a fully exhausted realm would misreport
		// as 50%.
		inUse := 0
		for _, st := range shards {
			inUse += st.inUse
		}
		if udpCapacity := capacity / 2; udpCapacity > 0 {
			u := float64(inUse) / float64(udpCapacity)
			out.util[t] = u
			if u > out.stat.PeakUtil {
				out.stat.PeakUtil = u
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(spec, t, curNow, sn)
		}
	}
	for i := range workers {
		close(workers[i].start)
	}

	final := sn.PortStats()
	out.stat.Created = final.Allocs
	out.stat.Failures = final.Failures()
	out.stat.Expired = sn.CounterTotal("mappings_expired")
	// Shard-private accumulators merge in shard-index order; every
	// merged quantity is an integer count, so the fold is order-proof
	// anyway.
	for _, st := range shards {
		out.refreshes += st.refreshes
		for c := range out.classHists {
			out.classHists[c].Merge(&st.classHists[c])
		}
		out.allHist.Merge(&st.allHist)
		out.adv.merge(&st.adv)
		if faulty {
			for t := range st.degA {
				out.degA[t] += st.degA[t]
				out.degF[t] += st.degF[t]
			}
		}
	}
	if attacks {
		out.adv.attackers = numAtk
		out.adv.quotaDrops = final.QuotaDrops
		out.adv.noPorts = final.NoPorts
		out.adv.rateLimited = final.RateLimited
		out.adv.evictions = final.Evictions
	}
	return out
}
