package traffic

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// Realm is the realm kernel: one carrier NAT — a nat.Sharded — and the
// subscriber population behind it, stepped tick by tick in virtual
// time. It is the only code that drives subscriber flows through a NAT:
// Run steps one per realm over a fixed horizon, applying its fault plan
// between steps, and the fleet engine (internal/fleet) steps one per
// enabled carrier a virtual day at a time, applying timeline events
// between days and checkpointing the kernel's Snapshot.
//
// One realm's work splits across the lanes of the nat.Sharded — one
// lane per external pool IP, subscribers pinned to lanes by address
// hash — and lanes group into shards, each driven by its own goroutine
// for the length of a Step. A tick is a single parallel phase: every
// shard, over its owned lanes in ascending lane order, sweeps the lane,
// refreshes its live flows, draws the tick's arrivals from the lane's
// own RNG stream and applies them immediately, then folds its sampling
// buckets and port occupancy. There is no serial driver section —
// arrival generation is lane-confined, so nothing has to be drawn
// centrally or handed across shards.
//
// A lane's live flows sit in one slice, subscriber ascending and FIFO
// within a subscriber: the refresh walk reads it front to back and
// compacts the survivors in place, and the tick's arrivals — decoded
// into one run per class, each already subscriber ascending — merge in
// behind each subscriber's older flows, from the back of the slice. A
// tick thus reads and writes each lane's flows in address order and
// sorts nothing.
//
// Arrivals are decoded by geometric skip-sampling (forEachArrival): for
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
// stream, seeded in lane order before the first tick. Shard-private
// accumulators merge in shard-index order, and all merged quantities are
// integers, so the realm's outcome is identical at any shard count too.
//
// Everything between ticks — ApplyFaults, Repopulate, Snapshot — runs on
// the caller's goroutine with no shard worker alive. Every mutating
// method drains its counters into the caller's Tally before returning,
// so the kernel never holds undrained results between calls.
type Realm struct {
	p Profile
	// cfg is the engine's configuration; a restart rebuilds from it.
	cfg nat.Config
	sn  *nat.Sharded
	// pop is the population; member j's address is subscriberBase + j.
	pop []Member
	// laneOf memoizes each member's ACTIVE lane — the address hash,
	// until a fault re-pins displaced subscribers to failover lanes.
	// laneSubs lists each lane's members by row (Member.row), ascending:
	// the class rows are the skip-sampling decode's index space, atkRow
	// the flood decode's. Retired members sit in no row.
	laneOf   []int32
	laneSubs [][numRows][]int32
	// flows holds each lane's live flows, subscriber ascending and FIFO
	// within a subscriber; a member's flows all sit on its active lane.
	// A tick compacts and merges a lane's flows in place, so a warm
	// tick allocates nothing. moved holds, during repartition, the flows
	// of the members moving onto each lane.
	flows, moved [][]flow
	// st holds the shard states; lane l belongs to shard l % len(st).
	st []*shardState
	// Per-lane arrival streams and destination sequences. Destination
	// collisions across lanes are harmless (source addresses differ
	// across lanes, so 5-tuples stay distinct); within a lane the counter
	// keeps them distinct. The attack streams and sequences exist only
	// when the profile offers adversaries.
	frLane     []fastrand.Rand
	dstSeq     []uint64
	atkFrLane  []fastrand.Rand
	atkSeqLane []uint64
	attacks    bool
	// Tick-invariant rates: the class arrival rates before the diurnal
	// factor, the hold span, and the flood and scanner parameters (not
	// diurnal, so hoisted entirely).
	rates                   [numClasses]float64
	holdSpan                uint32
	floodLambda             float64
	expNegFlood, expNegScan float64
	scanLo, scanSpan        uint32
	// drained is the engine counter state already folded into a Tally.
	drained nat.PortStats
	// Per-tick inputs: written by the driver goroutine before the start
	// barrier, read by shard workers after it (the channel send/receive
	// orders the accesses).
	curNow               time.Time
	curLambda, curExpNeg [numClasses]float64
}

// shardState is one shard's private slice of a realm: its lanes, the
// live counts of their members, its arrival runs and its accumulators,
// which drain into the caller's Tally in shard-index order at the end of
// every Step.
type shardState struct {
	// lanes this shard owns (ascending).
	lanes []int
	lc    *liveCounts
	// Private accumulators, drained after every Step.
	classHists [numClasses]Hist
	allHist    Hist
	refreshes  uint64
	adv        advAccum
	// inUse is the shard's per-tick port-occupancy fold over its owned
	// lanes, and tickA/tickF its legitimate allocation attempts and
	// refusals this tick (new flows plus refresh-fallback
	// re-establishments); the driver sums the S values after the barrier.
	inUse        int
	tickA, tickF uint64
	// runs holds the current lane's new flows this tick, one run per
	// class, each subscriber ascending (the decode visits a class's
	// subscribers in order) — the merge's input, reused lane after lane.
	runs [numClasses][]flow
	// emit is the shard's arrival sink, allocated once at construction
	// and parameterized through curLane/curClass/curList/curLn/curFr so
	// the per-tick decode passes allocate nothing. atkEmit is its
	// adversarial twin: flood flows through the same decoder, but
	// fire-and-forget (never kept, never refreshed).
	curLane  int
	curClass Class
	curList  []int32
	curLn    *nat.NAT
	curFr    *fastrand.Rand
	emit     func(i, k int)
	atkEmit  func(i, k int)
}

// Tally is a realm's cumulative outcome: the per-tick concurrent-port
// samples of its tracked subscribers and its flow counters. Step,
// ApplyFaults and Repopulate add into the Tally the caller passes; a
// caller that replaces a Realm (the fleet re-provisioning a carrier)
// keeps one Tally across all of them.
type Tally struct {
	// ClassHists and AllHist hold one sample per tracked subscriber per
	// tick: concurrent external ports held.
	ClassHists [numClasses]Hist
	AllHist    Hist
	// Refreshes counts successful mapping keepalives and PeakUtil is the
	// highest instantaneous UDP port-space utilization.
	Refreshes uint64
	PeakUtil  float64
	// Created, Expired and Failures count mappings created and removed
	// and allocations refused, folded across engine restarts.
	Created, Expired, Failures uint64
	// The adversarial and fault books (E19, E22), reported by Run only.
	adv         advAccum
	disrupted   uint64
	faultEvents int
}

// Tick is one tick's realm-wide outcome, reported to Step's callback.
type Tick struct {
	// T is the tick index and Now its virtual time.
	T   int
	Now time.Time
	// Util is the instantaneous UDP port-space utilization after the
	// tick.
	Util float64
	// Attempts and Failures count the tick's legitimate allocation
	// attempts (new flows plus refresh-fallback re-establishments) and
	// refusals — the raw E22 degradation series.
	Attempts, Failures uint64
}

// Member is one subscriber of a realm population as the kernel's caller
// sees it. Members are identified by index — member j's internal address
// is the realm's subscriber base plus j — so a population only grows: a
// subscriber that leaves is marked Retired, never removed.
type Member struct {
	Class Class
	// Attacker marks a flooder: it offers no legitimate flows, opens
	// flood flows at the profile's attack rate, and stays out of the
	// class census.
	Attacker bool
	// Retired marks a subscriber that has left: it offers no traffic,
	// its flows are gone, its remaining mappings idle out, and it stays
	// out of the census.
	Retired bool
}

// NewMembers draws n fresh members: one class draw from u each, in
// order — the realm stream's draws, so the sequence must not shift —
// with the leading int(AttackerFrac·n) designated flooders. Attackers
// keep their class draw; designation by index costs no random draw.
func NewMembers(p Profile, n int, u func() float64) []Member {
	pop := make([]Member, n)
	for j := range pop {
		class := Median
		switch x := u(); {
		case x < p.HeavyFrac:
			class = Heavy
		case x < p.HeavyFrac+p.LightFrac:
			class = Light
		}
		pop[j].Class = class
	}
	for j := 0; j < attackerCount(p, n); j++ {
		pop[j].Attacker = true
	}
	return pop
}

// NewRealm builds a realm kernel over a fresh sharded NAT from cfg, for
// population pop under profile p (defaults applied). seed supplies the
// per-lane stream seeds: one draw per lane in lane order, then — when
// the profile offers adversaries — one more per lane for the attack
// streams.
func NewRealm(p Profile, cfg nat.Config, shards int, pop []Member, seed func() uint64) *Realm {
	r := newRealm(p, cfg, pop, nat.NewSharded(cfg, shards))
	for l := range r.frLane {
		r.frLane[l] = fastrand.Rand(seed())
	}
	for l := range r.atkFrLane {
		r.atkFrLane[l] = fastrand.Rand(seed())
	}
	r.repartition()
	return r
}

// newRealm wires a kernel around engine sn: members at their derived
// addresses, shard states, zeroed streams, the hoisted rates, the
// arrival sinks and the lanes' session hooks. The partition itself is
// left to repartition.
func newRealm(p Profile, cfg nat.Config, pop []Member, sn *nat.Sharded) *Realm {
	lanes := sn.NumLanes()
	r := &Realm{
		p:        p,
		cfg:      cfg,
		sn:       sn,
		laneSubs: make([][numRows][]int32, lanes),
		flows:    make([][]flow, lanes),
		moved:    make([][]flow, lanes),
		st:       make([]*shardState, sn.NumShards()),
		frLane:   make([]fastrand.Rand, lanes),
		dstSeq:   make([]uint64, lanes),
		attacks:  p.AttacksEnabled(),
		holdSpan: uint32(2*p.FlowHoldTicks - 1),
	}
	r.addMembers(pop)
	for c := Class(0); c < numClasses; c++ {
		r.rates[c] = p.FlowsPerTick * classRate(p, c)
	}
	if r.attacks {
		r.atkFrLane = make([]fastrand.Rand, lanes)
		r.atkSeqLane = make([]uint64, lanes)
		r.floodLambda = p.AttackerFlowsPerTick
		r.expNegFlood = math.Exp(-r.floodLambda)
		r.expNegScan = math.Exp(-p.ScannerProbesPerTick)
		eff := sn.Config()
		r.scanLo = uint32(eff.PortLo)
		r.scanSpan = uint32(eff.PortHi) - uint32(eff.PortLo) + 1
	}
	for s := range r.st {
		r.st[s] = &shardState{}
	}
	for l := 0; l < lanes; l++ {
		st := r.st[sn.ShardOf(l)]
		st.lanes = append(st.lanes, l)
	}
	for _, st := range r.st {
		r.installSinks(st)
	}
	r.installHooks()
	return r
}

// addMembers appends pop's members beyond the current population, each
// with no flows, memoized on its hash lane, at its derived address:
// synthetic because it never leaves the engine, dense above the base so
// RandomChunk's chunk table and the hooks' address-to-index subtraction
// both work.
func (r *Realm) addMembers(pop []Member) {
	r.laneOf = slices.Grow(r.laneOf, len(pop)-len(r.laneOf))
	for j := len(r.pop); j < len(pop); j++ {
		r.laneOf = append(r.laneOf, int32(r.sn.LaneFor(subscriberBase+netaddr.Addr(j))))
	}
	r.pop = append(r.pop, pop[len(r.pop):]...)
}

// installSinks allocates the shard's arrival sinks once: forEachArrival
// calls them for every arriving subscriber of the pass set up in the
// cur* fields. Hold spans 1..2*FlowHoldTicks-1 ticks.
func (r *Realm) installSinks(st *shardState) {
	st.atkEmit = func(i, k int) {
		src := subscriberBase + netaddr.Addr(st.curList[i])
		fr := st.curFr
		st.adv.attackerAttempts += uint64(k)
		for ; k > 0; k-- {
			r.atkSeqLane[st.curLane]++
			seq := r.atkSeqLane[st.curLane]
			f := netaddr.FlowOf(netaddr.UDP,
				netaddr.EndpointOf(src, uint16(1024+fr.Intn(64512))),
				netaddr.EndpointOf(atkDstBase+netaddr.Addr(uint32(seq)), uint16(9+(seq>>32))))
			if _, v := st.curLn.TranslateOut(f, r.curNow); v != nat.Ok {
				st.adv.attackerFailures++
			}
		}
	}
	st.emit = func(i, k int) {
		j := st.curList[i]
		src := subscriberBase + netaddr.Addr(j)
		fr := st.curFr
		for ; k > 0; k-- {
			r.dstSeq[st.curLane]++
			seq := r.dstSeq[st.curLane]
			f := netaddr.FlowOf(netaddr.UDP,
				netaddr.EndpointOf(src, uint16(1024+fr.Intn(64512))),
				netaddr.EndpointOf(dstBase+netaddr.Addr(uint32(seq)), uint16(443+(seq>>32))))
			hold := 1 + fr.Intn(r.holdSpan)
			_, ref, v := st.curLn.TranslateOutRef(f, r.curNow)
			if r.attacks {
				st.adv.legitAttempts++
				if v != nat.Ok {
					st.adv.legitFailures++
				}
			}
			st.tickA++
			if v != nat.Ok {
				st.tickF++
			}
			if v == nat.Ok {
				run := &st.runs[st.curClass]
				*run = append(*run, flow{ticksLeft: int32(hold), f: f, ref: ref})
			}
		}
	}
}

// installHooks wires each lane's session hook into the owning shard's
// live-count buckets. A member's mappings all sit on its active lane
// (the re-pin pass keeps that invariant: a member's mappings never
// outlive a move off their lane), so a lane's session count of a member
// is the member's whole count, and a hook, firing on the goroutine
// driving its lane, moves only members of that lane's shard. A restart
// replaces the engine and re-arms the fresh lanes.
func (r *Realm) installHooks() {
	for l := 0; l < r.sn.NumLanes(); l++ {
		st := r.st[r.sn.ShardOf(l)]
		r.sn.Lane(l).SetSessionHook(func(a netaddr.Addr, from, to int32) {
			if j := uint32(a - subscriberBase); j < uint32(len(r.pop)) {
				if row, ok := r.pop[j].row(); ok {
					st.lc.Move(row, from, to)
				}
			}
		})
	}
}

// NAT returns the realm's engine for read-only inspection between
// steps: digests, port statistics, lane state. Driving traffic through
// it would break the kernel's lane-confinement invariants.
func (r *Realm) NAT() *nat.Sharded { return r.sn }

// Step runs ticks [from, to), adding their samples and counters to t.
// each, when non-nil, is called after every tick with the tick's
// realm-wide outcome, on the calling goroutine with every shard worker
// idle (it may inspect NAT()).
//
// Shard workers are S-1 goroutines spawned for the step. Each tick the
// driver publishes the tick inputs, releases every worker through its
// start channel, runs shard 0 itself, then collects the done signals — a
// reusable two-phase barrier in place of per-tick goroutine spawns and
// WaitGroups. The channels are buffered so the driver never blocks on
// the fan-out.
func (r *Realm) Step(from, to int, t *Tally, each func(Tick)) {
	type shardWorker struct {
		start chan struct{}
		done  chan struct{}
	}
	var workers []shardWorker
	if len(r.st) > 1 && to > from {
		workers = make([]shardWorker, len(r.st)-1)
		for i := range workers {
			workers[i] = shardWorker{start: make(chan struct{}, 1), done: make(chan struct{}, 1)}
			go func(st *shardState, w *shardWorker) {
				for range w.start {
					r.shardTick(st)
					w.done <- struct{}{}
				}
			}(r.st[i+1], &workers[i])
		}
	}
	// Pool capacity is immutable; hoist it so per-tick aggregation is a
	// sum of S integers instead of a full PortStats assembly.
	capacity := r.sn.PortStats().Capacity
	epoch := time.Unix(0, 0)
	for tick := from; tick < to; tick++ {
		r.curNow = epoch.Add(time.Duration(tick) * r.p.TickStep)
		df := diurnalFactor(r.p, tick)
		for c := range r.rates {
			r.curLambda[c] = r.rates[c] * df
			r.curExpNeg[c] = math.Exp(-r.curLambda[c])
		}
		for i := range workers {
			workers[i].start <- struct{}{}
		}
		r.shardTick(r.st[0])
		for i := range workers {
			<-workers[i].done
		}

		// Aggregation, after the barrier. The engine generates UDP flows
		// only, so utilization divides by the UDP share of the capacity
		// (PortStats counts UDP and TCP segments); against the full
		// dual-protocol capacity a fully exhausted realm would misreport
		// as 50%.
		tk := Tick{T: tick, Now: r.curNow}
		inUse := 0
		for _, st := range r.st {
			inUse += st.inUse
			tk.Attempts += st.tickA
			tk.Failures += st.tickF
		}
		if udpCapacity := capacity / 2; udpCapacity > 0 {
			tk.Util = float64(inUse) / float64(udpCapacity)
			if tk.Util > t.PeakUtil {
				t.PeakUtil = tk.Util
			}
		}
		if each != nil {
			each(tk)
		}
	}
	for i := range workers {
		close(workers[i].start)
	}
	r.drain(t)
}

// shardTick is one shard's whole tick. Lane by lane, ascending: sweep
// the lane, refresh its flows, decode and apply its arrivals, merge the
// new flows in. Then fold the sampling buckets and port occupancy.
func (r *Realm) shardTick(st *shardState) {
	sn, now := r.sn, r.curNow
	st.tickA, st.tickF = 0, 0
	inUse := 0
	for _, l := range st.lanes {
		ln := sn.Lane(l)
		ln.Sweep(now)
		// Refresh walk: the lane's flows front to back, survivors
		// compacted in place.
		live := r.flows[l]
		w := 0
		for i := range live {
			f := &live[i]
			ok := ln.Refresh(f.ref, f.f.Dst, now)
			if !ok {
				var v nat.Verdict
				_, f.ref, v = ln.TranslateOutRef(f.f, now)
				ok = v == nat.Ok
				// A re-establishment is a legitimate allocation
				// attempt — during an outage this is exactly where
				// displaced flows hit the surviving lanes.
				st.tickA++
				if !ok {
					st.tickF++
				}
			}
			if ok {
				st.refreshes++
			}
			f.ticksLeft--
			if f.ticksLeft > 0 && ok {
				live[w] = *f
				w++
			}
		}
		live = live[:w]
		// Arrivals: per class ascending, skip-sampled on the lane's
		// stream and applied immediately, each class's new flows into
		// its run. The adversarial pass follows on the lane's own
		// attack stream.
		st.curLane, st.curLn, st.curFr = l, ln, &r.frLane[l]
		for c := Class(0); c < numClasses; c++ {
			st.runs[c] = st.runs[c][:0]
			list := r.laneSubs[l][c]
			if r.curLambda[c] <= 0 || len(list) == 0 {
				continue
			}
			st.curClass, st.curList = c, list
			forEachArrival(st.curFr, len(list), r.curLambda[c], r.curExpNeg[c], st.emit)
		}
		r.flows[l] = mergeFlows(live, &st.runs)
		if r.attacks {
			fr := &r.atkFrLane[l]
			st.curFr = fr
			if list := r.laneSubs[l][atkRow]; len(list) > 0 && r.floodLambda > 0 {
				st.curList = list
				forEachArrival(fr, len(list), r.floodLambda, r.expNegFlood, st.atkEmit)
			}
			// Scanner probes against this lane's external IP — the
			// lane-confined slice of the pool-wide sweep.
			if r.p.ScannerProbesPerTick > 0 {
				ip := sn.Config().ExternalIPs[l]
				for k := fr.Poisson(r.expNegScan); k > 0; k-- {
					probe := netaddr.FlowOf(netaddr.UDP,
						netaddr.EndpointOf(scannerAddr, uint16(1024+fr.Intn(64512))),
						netaddr.EndpointOf(ip, uint16(r.scanLo+fr.Intn(r.scanSpan))))
					st.adv.scannerProbes++
					if _, v := ln.TranslateIn(probe, now); v != nat.Ok {
						st.adv.scannerBlocked++
					}
				}
			}
		}
		inUse += ln.InUsePorts()
	}
	st.inUse = inUse
	st.lc.Fold(&st.classHists, &st.allHist, &st.adv.attackerHist)
}

// mergeFlows merges the tick's arrival runs into a lane's surviving
// flows live, in place, and returns the merged lane, subscriber
// ascending. Each run is subscriber ascending and a subscriber's new
// flows all sit in one run (its class's). The merge fills the slice
// from the back: it moves up the survivors of every subscriber above the
// highest remaining arrival, then writes that subscriber's arrivals
// below them. On a tie the survivors stay first: they are the
// subscriber's older flows. Flows compare by source address, which is
// subscriberBase plus the member index. The slice at least doubles when
// it must grow, so a lane's ramp-up costs a few allocations.
func mergeFlows(live []flow, runs *[numClasses][]flow) []flow {
	i := len(live)
	end := [numClasses]int{len(runs[0]), len(runs[1]), len(runs[2])}
	w := i + end[0] + end[1] + end[2]
	if w > cap(live) {
		live = slices.Grow(live, max(w, 2*cap(live))-i)
	}
	live = live[:w]
	// w-i arrivals remain to place; the survivors below i are in place.
	for w > i {
		c := 0
		for k := 1; k < len(runs); k++ {
			if end[k] > 0 && (end[c] == 0 || runs[k][end[k]-1].f.Src.Addr > runs[c][end[c]-1].f.Src.Addr) {
				c = k
			}
		}
		run := runs[c]
		addr := run[end[c]-1].f.Src.Addr
		for i > 0 && live[i-1].f.Src.Addr > addr {
			i, w = i-1, w-1
			live[w] = live[i]
		}
		for end[c] > 0 && run[end[c]-1].f.Src.Addr == addr {
			end[c], w = end[c]-1, w-1
			live[w] = run[end[c]]
		}
	}
	return live
}

// drain folds the shard-private accumulators into t in shard-index
// order, resetting them, and adds the engine counters' growth since the
// last drain. Every merged quantity is an integer count, so the fold is
// order-proof anyway.
func (r *Realm) drain(t *Tally) {
	for _, st := range r.st {
		t.Refreshes += st.refreshes
		st.refreshes = 0
		for c := range t.ClassHists {
			t.ClassHists[c].Merge(&st.classHists[c])
			st.classHists[c].reset()
		}
		t.AllHist.Merge(&st.allHist)
		st.allHist.reset()
		t.adv.merge(&st.adv)
		h := st.adv.attackerHist
		h.reset()
		st.adv = advAccum{attackerHist: h}
	}
	ps, d := r.sn.PortStats(), &r.drained
	t.Created += ps.Allocs - d.Allocs
	t.Expired += ps.Expired - d.Expired
	t.Failures += ps.Failures() - d.Failures()
	t.adv.noPorts += ps.NoPorts - d.NoPorts
	t.adv.quotaDrops += ps.QuotaDrops - d.QuotaDrops
	t.adv.rateLimited += ps.RateLimited - d.RateLimited
	t.adv.evictions += ps.Evictions - d.Evictions
	*d = ps
}

// ApplyFaults applies one fault boundary between steps: the ups lanes
// restore, then the downs lanes go dark, then — with restart — the whole
// engine reboots, and finally the re-pin/repartition pass restores the
// two invariants the parallel phase rests on: a subscriber's mappings
// live only on its active lane, and a subscriber is driven by the shard
// owning that lane. Lane indexes must be in [0, NAT().NumLanes()).
//
// A restart loses every mapping but keeps an outage in progress (the
// pool IPs are dark whatever the box does). The engine is rebuilt from
// the same configuration, the lane streams continue, and live flows keep
// their places on their lanes and re-establish through the refresh
// fallback; the old engine's counters fold into t first.
func (r *Realm) ApplyFaults(ups, downs []int, restart bool, t *Tally) {
	sn := r.sn
	for _, l := range ups {
		if sn.LaneDown(l) {
			sn.SetLaneUp(l)
			t.faultEvents++
		}
	}
	for _, l := range downs {
		if d, ok := sn.SetLaneDown(l); ok {
			t.disrupted += uint64(d)
			t.faultEvents++
		}
	}
	if restart {
		t.disrupted += uint64(sn.NumMappings())
		t.faultEvents++
		r.drain(t)
		down := sn.DownLanes()
		r.sn = nat.NewSharded(r.cfg, sn.NumShards())
		for l, d := range down {
			if d {
				r.sn.SetLaneDown(l)
			}
		}
		r.installHooks()
		r.drained = nat.PortStats{}
		// Old refs must be cleared, not left dangling into the discarded
		// engine (a non-dead orphan would "refresh" against a table that
		// no longer owns it).
		for _, live := range r.flows {
			for i := range live {
				live[i].ref = nat.MappingRef{}
			}
		}
	}
	t.disrupted += r.repartition()
	r.drain(t)
}

// Repopulate moves the kernel to population pop: the current members in
// the same order — any of them newly Retired — followed by any new
// ones. A retiring member's flows end (its mappings idle out); new
// members start with none. The partition is rebuilt wholesale, like a
// fault boundary's, and the rebuild drops the retired members' flows.
func (r *Realm) Repopulate(pop []Member, t *Tally) {
	for j := range r.pop {
		if pop[j].Retired {
			r.pop[j].Retired = true
		}
	}
	r.addMembers(pop)
	t.disrupted += r.repartition()
	r.drain(t)
}

// repartition re-pins every member to its active lane, drops any
// mapping stranded on a lane its owner moved off (returned as the
// disrupted count — the CGN re-homing the subscriber tears down its old
// bindings; lanes going down already dropped theirs), and rebuilds the
// partition wholesale: the per-lane member lists, the per-shard live
// counts, and the lanes' flows — members staying on their lane keep
// their flows in place, members changing lanes take theirs along,
// retired ones leave theirs behind. Everything is rebuilt in ascending
// member order, so the result depends only on the lane assignment and
// the population, not on which shard previously held what.
func (r *Realm) repartition() uint64 {
	sn, pop := r.sn, r.pop
	newLane := make([]int32, len(pop))
	// rows counts each lane's members by row, so every member list below
	// is sized once before it fills.
	rows := make([][numRows]int, len(r.laneSubs))
	for j, m := range pop {
		l := sn.ActiveLaneFor(subscriberBase + netaddr.Addr(j))
		newLane[j] = int32(l)
		if row, ok := m.row(); ok {
			rows[l][row]++
		}
	}
	var disrupted uint64
	for l := 0; l < sn.NumLanes(); l++ {
		if sn.LaneDown(l) {
			continue
		}
		ll := int32(l)
		disrupted += uint64(sn.Lane(l).DropMatching(func(m *nat.Mapping) bool {
			j := uint32(m.Int.Addr - subscriberBase)
			return j < uint32(len(pop)) && newLane[j] != ll
		}))
	}
	for l := range r.laneSubs {
		for row := range r.laneSubs[l] {
			r.laneSubs[l][row] = slices.Grow(r.laneSubs[l][row][:0], rows[l][row])
		}
	}
	// A member's flows sit contiguous on its old lane, so one read
	// cursor per lane walks them in member order. A member that stays
	// keeps its flows in place (the lane compacts behind its write
	// cursor); one that moves parks them in its new lane's moved list,
	// which thus receives its members ascending and merges in below.
	type cursor struct{ read, kept int }
	cur := make([]cursor, len(r.flows))
	for j, m := range pop {
		l := int(newLane[j])
		if row, ok := m.row(); ok {
			r.laneSubs[l][row] = append(r.laneSubs[l][row], int32(j))
		}
		old := r.laneOf[j]
		live, c := r.flows[old], &cur[old]
		lo := c.read
		for c.read < len(live) && live[c.read].member() == int32(j) {
			c.read++
		}
		r.laneOf[j] = int32(l)
		switch {
		case m.Retired:
		case int32(l) == old:
			c.kept += copy(live[c.kept:], live[lo:c.read])
		default:
			// A subscriber changing lanes leaves dead mappings behind
			// (dropped above, or with the dark lane) — but its flows'
			// refs still point into the old lane's slab. The dead/gen
			// guard would reject them anyway; clearing them here keeps
			// the next parallel phase from dereferencing another shard's
			// slab memory at all (the refresh fallback is identical
			// either way: a zero ref reports stale exactly like a dead
			// one).
			at := len(r.moved[l])
			r.moved[l] = append(r.moved[l], live[lo:c.read]...)
			for k := at; k < len(r.moved[l]); k++ {
				r.moved[l][k].ref = nat.MappingRef{}
			}
		}
	}
	for l := range r.flows {
		// Room for the lane's expected peak — a tick's arrivals at the
		// diurnal peak times the mean hold, plus three standard
		// deviations — so a lane rarely grows mid-run.
		var peak float64
		for c, rate := range r.rates {
			peak += float64(len(r.laneSubs[l][c])) * rate
		}
		peak *= float64(r.p.FlowHoldTicks) * (1 + r.p.DiurnalAmp)
		live := r.flows[l][:cur[l].kept]
		live = slices.Grow(live, max(0, int(peak+3*math.Sqrt(peak))-len(live)))
		r.flows[l] = mergeFlows(live, &[numClasses][]flow{r.moved[l]})
		r.moved[l] = r.moved[l][:0]
	}
	// Every member starts in bucket 0; the members of a lane holding
	// mappings then move to their lane's session counts, which after the
	// drops above are their whole counts.
	for _, st := range r.st {
		var members [numRows]int
		for _, l := range st.lanes {
			for row, list := range r.laneSubs[l] {
				members[row] += len(list)
			}
		}
		st.lc = newLiveCounts(members)
		for _, l := range st.lanes {
			ln := sn.Lane(l)
			if ln.NumMappings() == 0 {
				continue
			}
			for row, list := range r.laneSubs[l] {
				for _, j := range list {
					if k := ln.Sessions(subscriberBase + netaddr.Addr(j)); k > 0 {
						st.lc.Move(row, 0, int32(k))
					}
				}
			}
		}
	}
	return disrupted
}

// RealmSnapshot is a realm kernel's complete state between steps.
// Together with the profile, NAT configuration and population it was
// taken under, it determines the rest of the run: a kernel restored
// from it continues byte-identically, at any shard count.
type RealmSnapshot struct {
	// Flows lists every live flow, subscriber by subscriber ascending and
	// in FIFO order within one. Mapping handles are deliberately absent:
	// every live flow refreshed its mapping on the last tick, so restore
	// resolves the same mapping by key (RefForFlow) — and if two flows
	// share a key they resolve to the same mapping in both runs.
	Flows []FlowState
	// Streams are the per-lane arrival streams and DstSeqs the matching
	// destination sequences, in lane order; AttackStreams and AttackSeqs
	// are their adversarial twins, nil when the profile offers none.
	Streams, DstSeqs          []uint64
	AttackStreams, AttackSeqs []uint64
	// LanesDown flags the lanes dark to an outage, nil when every lane
	// is up. A down lane holds no mappings, so restore reapplies the
	// flag without dropping anything.
	LanesDown []bool
	// Lanes is the engine's per-lane state, in lane order.
	Lanes []*nat.Snapshot
}

// FlowState is one live flow of a RealmSnapshot.
type FlowState struct {
	Sub       int32
	F         netaddr.Flow
	TicksLeft int32
}

// Snapshot captures the kernel's complete state. Call between steps.
func (r *Realm) Snapshot() *RealmSnapshot {
	s := &RealmSnapshot{
		Streams:    make([]uint64, len(r.frLane)),
		DstSeqs:    slices.Clone(r.dstSeq),
		AttackSeqs: slices.Clone(r.atkSeqLane),
		LanesDown:  r.sn.DownLanes(),
		Lanes:      r.sn.Snapshot(),
	}
	for l, fr := range r.frLane {
		s.Streams[l] = uint64(fr)
	}
	if r.attacks {
		s.AttackStreams = make([]uint64, len(r.atkFrLane))
		for l, fr := range r.atkFrLane {
			s.AttackStreams[l] = uint64(fr)
		}
	}
	// Member order, one cursor per lane: a member's flows sit
	// contiguous on its active lane.
	n := 0
	for _, live := range r.flows {
		n += len(live)
	}
	if n > 0 {
		s.Flows = make([]FlowState, 0, n)
	}
	next := make([]int, len(r.flows))
	for j, l := range r.laneOf {
		live := r.flows[l]
		for ; next[l] < len(live) && live[next[l]].member() == int32(j); next[l]++ {
			f := &live[next[l]]
			s.Flows = append(s.Flows, FlowState{Sub: int32(j), F: f.f, TicksLeft: f.ticksLeft})
		}
	}
	return s
}

// RestoreRealm rebuilds a kernel from a snapshot taken under the same
// profile, NAT configuration and population; the shard count may
// differ. The snapshot is untrusted input: every inconsistency — stream
// counts that do not match the pool, a whole pool dark, a mapping that
// belongs to no member or sits off its owner's active lane, a flow that
// is not its member's, out of member order or with a lifetime no flow
// can have left — is an error, never a panic or a silently different
// run.
func RestoreRealm(p Profile, cfg nat.Config, shards int, pop []Member, s *RealmSnapshot) (*Realm, error) {
	if s == nil {
		return nil, fmt.Errorf("traffic: restore: nil snapshot")
	}
	sn, err := nat.NewShardedFromSnapshot(cfg, shards, s.Lanes)
	if err != nil {
		return nil, fmt.Errorf("traffic: restore: %w", err)
	}
	lanes := sn.NumLanes()
	atkLanes := 0
	if p.AttacksEnabled() {
		atkLanes = lanes
	}
	if len(s.Streams) != lanes || len(s.DstSeqs) != lanes || len(s.AttackStreams) != atkLanes || len(s.AttackSeqs) != atkLanes {
		return nil, fmt.Errorf("traffic: restore: %d/%d arrival and %d/%d attack streams for %d lanes", len(s.Streams), len(s.DstSeqs), len(s.AttackStreams), len(s.AttackSeqs), lanes)
	}
	if s.LanesDown != nil && len(s.LanesDown) != lanes {
		return nil, fmt.Errorf("traffic: restore: %d lane-outage flags for %d lanes", len(s.LanesDown), lanes)
	}
	// Reapply outage flags: a down lane was captured empty, so nothing
	// drops here.
	for l, d := range s.LanesDown {
		if !d {
			continue
		}
		if _, ok := sn.SetLaneDown(l); !ok {
			return nil, fmt.Errorf("traffic: restore: every lane down")
		}
	}
	r := newRealm(p, cfg, pop, sn)
	for l := range r.frLane {
		r.frLane[l] = fastrand.Rand(s.Streams[l])
	}
	copy(r.dstSeq, s.DstSeqs)
	for l := range r.atkFrLane {
		r.atkFrLane[l] = fastrand.Rand(s.AttackStreams[l])
	}
	copy(r.atkSeqLane, s.AttackSeqs)
	for j := range r.laneOf {
		r.laneOf[j] = int32(sn.ActiveLaneFor(subscriberBase + netaddr.Addr(j)))
	}
	// Every mapping must be a member's, on the member's active lane —
	// the invariant that keeps hooks and refreshes shard-confined and
	// makes a lane's session count its member's whole count.
	for l := 0; l < lanes; l++ {
		var bad error
		sn.Lane(l).ForEachMapping(func(m *nat.Mapping) {
			j := uint32(m.Int.Addr - subscriberBase)
			switch {
			case bad != nil:
			case j >= uint32(len(r.pop)):
				bad = fmt.Errorf("traffic: restore: lane %d maps %v, outside the %d-member population", l, m.Int, len(r.pop))
			case r.laneOf[j] != int32(l):
				bad = fmt.Errorf("traffic: restore: member %d's mapping sits on lane %d, its active lane is %d", j, l, r.laneOf[j])
			}
		})
		if bad != nil {
			return nil, bad
		}
	}
	r.repartition()
	// Deal the flows out to their members' lanes in serialized order,
	// which keeps every lane subscriber ascending and FIFO within one. A
	// flow whose key resolves to no live mapping gets a stale handle; the
	// next tick's refresh falls back to the full translation path
	// exactly as the uninterrupted run would.
	for fi, fs := range s.Flows {
		if fs.Sub < 0 || int(fs.Sub) >= len(r.pop) {
			return nil, fmt.Errorf("traffic: restore: flow %d names member %d of %d", fi, fs.Sub, len(r.pop))
		}
		if fi > 0 && fs.Sub < s.Flows[fi-1].Sub {
			return nil, fmt.Errorf("traffic: restore: flow %d (member %d) follows member %d's, out of member order", fi, fs.Sub, s.Flows[fi-1].Sub)
		}
		if fs.TicksLeft < 1 || uint32(fs.TicksLeft) > r.holdSpan {
			return nil, fmt.Errorf("traffic: restore: flow %d (%v) has %d ticks left, outside [1, %d]", fi, fs.F, fs.TicksLeft, r.holdSpan)
		}
		if m := r.pop[fs.Sub]; m.Attacker || m.Retired || fs.F.Proto != netaddr.UDP || fs.F.Src.Addr != subscriberBase+netaddr.Addr(fs.Sub) {
			return nil, fmt.Errorf("traffic: restore: flow %d (%v) is not a live flow of member %d", fi, fs.F, fs.Sub)
		}
		l := r.laneOf[fs.Sub]
		ref, _ := sn.Lane(int(l)).RefForFlow(fs.F)
		r.flows[l] = append(r.flows[l], flow{ticksLeft: fs.TicksLeft, f: fs.F, ref: ref})
	}
	r.drained = sn.PortStats()
	return r, nil
}
