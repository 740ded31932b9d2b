package fleet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/traffic"
)

// fleetSub is one subscriber of a realm. The address is derived — realm
// base plus index — and never stored. Churned-out subscribers stay in
// the slice (indices are stable identities) with active cleared; their
// remaining mappings idle out on their own.
type fleetSub struct {
	class      traffic.Class
	active     bool
	head, tail int32
	live       int32
}

// flowNode is one live flow in the realm arena, linked per subscriber
// in arrival (FIFO) order and recycled through the freelist — the same
// shape as the traffic engine's arena, so steady-state ticks never
// allocate.
type flowNode struct {
	f         netaddr.Flow
	ref       nat.MappingRef
	ticksLeft int32
	next      int32
}

// fleetSubBase anchors each realm's dense internal address block; the
// addresses are synthetic (they never leave the realm's private NAT) so
// every realm reuses the same block.
var fleetSubBase = netaddr.MustParseAddr("10.64.0.1")

// realmSim is one carrier's live state. Everything in here is owned by
// exactly one worker during a day step; cross-realm aggregation happens
// only at result time, in realm input order.
type realmSim struct {
	idx  int
	spec CarrierSpec

	enabled bool
	// provision counts pool re-provisionings (0 = the day-zero pool);
	// poolSize is the current pool's size. epoch counts engine builds —
	// every enable or re-provision starts a fresh allocation stream.
	provision, poolSize, epoch int
	eng                        *nat.Sharded

	subs      []fleetSub
	classSubs [3]int // active subscribers per class
	arena     []flowNode
	freeHead  int32
	fr        traffic.FastRand

	// Arrival state: one draw stream and destination sequence per lane
	// of the engine (nil while CGN is disabled), plus the per-lane,
	// per-class active-subscriber lists the skip-sampling decode walks.
	// The streams are seeded from the realm stream at provisioning and
	// checkpointed, so resume continues the exact draw sequences.
	frLanes  []traffic.FastRand
	dstSeqs  []uint64
	laneSubs [][3][]int32

	lc         *traffic.LiveCounts
	classHists [3]traffic.Hist
	allHist    traffic.Hist

	// Cumulative run counters. created/expired are hook-fed and span
	// engine teardowns; failFolded holds failures of torn-down engines
	// (the live engine's count is added on read).
	created, expired, refreshes, failFolded uint64
	dayBaseCreated                          uint64
	peakUtil                                float64

	// Windowed observation state: fixed-size day rings (length = the
	// longest observation window, clamped to the horizon) holding the
	// per-day evidence and enablement bits E21 scores from. This is the
	// entirety of the per-day record — bounded however long the run.
	evRing, enRing []bool
}

// failures returns the realm's cumulative allocation-failure count.
func (r *realmSim) failures() uint64 {
	f := r.failFolded
	if r.eng != nil {
		f += r.eng.PortStats().Failures()
	}
	return f
}

// subAddr is subscriber j's derived internal address.
func subAddr(j int) netaddr.Addr { return fleetSubBase + netaddr.Addr(uint32(j)) }

// engineSeedMix is the odd constant mixed with the engine epoch so each
// provisioned engine draws an independent allocation stream.
const engineSeedMix = 0x3C6EF372FE94F82B

// engineConfig is the realm's current NAT configuration — a pure
// function of the spec and the provisioning history, so restore can
// rebuild it without serializing it.
func (r *realmSim) engineConfig() nat.Config {
	cfg := r.spec.NAT
	if r.provision > 0 {
		cfg.ExternalIPs = reprovisionPool(r.idx, r.spec, r.provision, r.poolSize)
	}
	cfg.Seed = r.spec.NAT.Seed + int64(r.epoch)*engineSeedMix
	return cfg
}

// reprovisionPool is provisioning round p's fresh external block: real
// re-provisionings move the pool to new addresses, so each round shifts
// 64 addresses up from the carrier's original block.
func reprovisionPool(idx int, spec CarrierSpec, p, size int) []netaddr.Addr {
	var base netaddr.Addr
	if len(spec.NAT.ExternalIPs) > 0 {
		base = spec.NAT.ExternalIPs[0]
	} else {
		base = netaddr.MustParseAddr("198.19.0.1") + netaddr.Addr(uint32(idx)<<8)
	}
	base += netaddr.Addr(uint32(p) << 6)
	pool := make([]netaddr.Addr, size)
	for k := range pool {
		pool[k] = base + netaddr.Addr(k)
	}
	return pool
}

// installHooks wires the engine's mapping lifecycle into the realm's
// incremental live counts and cumulative counters. Inactive (churned)
// subscribers are excluded from sampling but their expiries still
// count.
func (r *realmSim) installHooks() {
	r.eng.SetMappingHooks(
		func(m *nat.Mapping) {
			r.created++
			if j := uint32(m.Int.Addr - fleetSubBase); j < uint32(len(r.subs)) {
				sub := &r.subs[j]
				if sub.active {
					r.lc.Move(sub.class, sub.live, sub.live+1)
				}
				sub.live++
			}
		},
		func(m *nat.Mapping) {
			r.expired++
			if j := uint32(m.Int.Addr - fleetSubBase); j < uint32(len(r.subs)) {
				sub := &r.subs[j]
				if sub.active {
					r.lc.Move(sub.class, sub.live, sub.live-1)
				}
				sub.live--
			}
		},
	)
}

// rebuildLC reconstructs the live-count buckets after any membership
// change: active subscribers enter at their current live value,
// inactive ones drop out of sampling.
func (r *realmSim) rebuildLC() {
	r.classSubs = [3]int{}
	for j := range r.subs {
		if r.subs[j].active {
			r.classSubs[r.subs[j].class]++
		}
	}
	r.lc = traffic.NewLiveCounts(r.classSubs)
	for j := range r.subs {
		sub := &r.subs[j]
		if sub.active && sub.live > 0 {
			r.lc.Move(sub.class, 0, sub.live)
		}
	}
	r.rebuildLaneSubs()
}

// rebuildLaneSubs reconstructs the per-lane, per-class subscriber lists
// (ascending by index — the skip-sampling decode order), keyed by each
// subscriber's *active* lane so pool outages move the displaced onto
// their failover lane's arrival stream. A no-op holding nil lists when
// the realm is disabled.
func (r *realmSim) rebuildLaneSubs() {
	if r.eng == nil {
		r.laneSubs = nil
		return
	}
	lanes := r.eng.NumLanes()
	if len(r.laneSubs) != lanes {
		r.laneSubs = make([][3][]int32, lanes)
	} else {
		for l := range r.laneSubs {
			for c := range r.laneSubs[l] {
				r.laneSubs[l][c] = r.laneSubs[l][c][:0]
			}
		}
	}
	for j := range r.subs {
		if !r.subs[j].active {
			continue
		}
		l := r.eng.ActiveLaneFor(subAddr(j))
		c := r.subs[j].class
		r.laneSubs[l][c] = append(r.laneSubs[l][c], int32(j))
	}
}

// teardown discards the realm's engine: counters fold into the realm's
// cumulative totals, every flow dies (there is no NAT to hold its
// mapping), and live counts reset. Used by disable and re-provision
// events.
func (r *realmSim) teardown() {
	if r.eng == nil {
		return
	}
	r.failFolded += r.eng.PortStats().Failures()
	r.eng = nil
	r.frLanes, r.dstSeqs = nil, nil
	r.arena = r.arena[:0]
	r.freeHead = -1
	for j := range r.subs {
		r.subs[j].head, r.subs[j].tail, r.subs[j].live = -1, -1, 0
	}
	r.rebuildLC()
}

// provisionEngine builds and wires a fresh engine for the realm's
// current configuration and seeds the per-lane arrival streams from the
// realm stream — a fixed draw count per provisioning, in lane order, so
// the sequence is deterministic and survives checkpointing through the
// serialized realm stream.
func (r *realmSim) provisionEngine(shards int) {
	r.epoch++
	r.eng = nat.NewSharded(r.engineConfig(), shards)
	r.installHooks()
	lanes := r.eng.NumLanes()
	r.frLanes = make([]traffic.FastRand, lanes)
	for l := range r.frLanes {
		r.frLanes[l] = traffic.NewFastRand(r.fr.Next())
	}
	r.dstSeqs = make([]uint64, lanes)
	r.rebuildLaneSubs()
}

// addSubscribers appends n fresh active subscribers, drawing classes
// from the realm stream exactly as day-zero population build does.
func (r *realmSim) addSubscribers(n int, p traffic.Profile) {
	for k := 0; k < n; k++ {
		class := traffic.Median
		switch x := r.fr.Float64(); {
		case x < p.HeavyFrac:
			class = traffic.Heavy
		case x < p.HeavyFrac+p.LightFrac:
			class = traffic.Light
		}
		r.subs = append(r.subs, fleetSub{class: class, active: true, head: -1, tail: -1})
	}
}

// apply executes one timeline event on the realm.
func (r *realmSim) apply(ev Event, p traffic.Profile, shards int) {
	switch ev.Kind {
	case EventDisable:
		if r.enabled {
			r.teardown()
			r.enabled = false
		}
	case EventEnable:
		if !r.enabled {
			r.provisionEngine(shards)
			r.enabled = true
		}
	case EventReprovision:
		r.provision++
		r.poolSize = ev.Arg
		if r.enabled {
			r.teardown()
			r.provisionEngine(shards)
		}
	case EventGrow:
		r.addSubscribers(ev.Arg, p)
		r.rebuildLC()
	case EventChurn:
		// Deactivate the Arg longest-standing actives (lowest indices)
		// and add as many fresh subscribers. Their flows die now; their
		// mappings idle out like any abandoned binding.
		left := ev.Arg
		for j := range r.subs {
			if left == 0 {
				break
			}
			sub := &r.subs[j]
			if !sub.active {
				continue
			}
			sub.active = false
			for idx := sub.head; idx >= 0; {
				next := r.arena[idx].next
				r.arena[idx].next = r.freeHead
				r.freeHead = int32(idx)
				idx = next
			}
			sub.head, sub.tail = -1, -1
			left--
		}
		r.addSubscribers(ev.Arg, p)
		r.rebuildLC()
	case EventLaneDown:
		// A pool IP goes dark: its mappings drop (expiry hooks keep the
		// live counts honest) and its subscribers re-pin to survivors.
		// The engine refuses to down the last standing lane, and a
		// disabled carrier has no lanes to lose.
		if r.eng != nil {
			r.eng.SetLaneDown(ev.Arg % r.eng.NumLanes())
			r.rebuildLaneSubs()
		}
	case EventLaneUp:
		if r.eng != nil {
			r.eng.SetLaneUp(ev.Arg % r.eng.NumLanes())
			r.rebuildLaneSubs()
		}
	case EventRestart:
		// The engine crashes and comes back empty: failures fold into
		// the cumulative counters, every mapping is lost without expiry
		// hooks (a crash, not a timeout), and lanes that were down stay
		// down. Flows survive in the arena with stale handles — the next
		// tick's refresh falls back to the full translation path, the
		// same re-establishment machinery resume uses.
		if r.eng != nil {
			r.failFolded += r.eng.PortStats().Failures()
			downs := r.eng.DownLanes()
			for j := range r.subs {
				r.subs[j].live = 0
			}
			for idx := range r.arena {
				r.arena[idx].ref = nat.MappingRef{}
			}
			r.provisionEngine(shards)
			for l, dn := range downs {
				if dn {
					r.eng.SetLaneDown(l)
				}
			}
			r.rebuildLC()
		}
	}
}

// activeSubscribers counts the realm's current population.
func (r *realmSim) activeSubscribers() int {
	return r.classSubs[0] + r.classSubs[1] + r.classSubs[2]
}

// runDay drives the realm through one virtual day of ticks against its
// live engine, then the day's observation bits into the rings.
func (r *realmSim) runDay(day int, p traffic.Profile, obs ObservationConfig, seed int64) {
	r.dayBaseCreated = r.created
	if r.eng != nil {
		r.runTicks(day, p)
	}
	// The day's observation bits. A CGN-active day (enabled, traffic
	// actually translated) is seen with VantageProb — the chance the
	// observer's vantage points sit behind this CGN and measure today —
	// and any day can yield a spurious positive with NoiseProb.
	if n := len(r.evRing); n > 0 {
		active := r.enabled && r.created > r.dayBaseCreated
		ev := active && hash01(seed, r.idx, day, vantageSalt) < obs.VantageProb
		ev = ev || hash01(seed, r.idx, day, noiseSalt) < obs.NoiseProb
		r.evRing[day%n] = ev
		r.enRing[day%n] = r.enabled
	}
}

// runTicks runs the day's refresh/arrive/sample ticks, the same tick the
// traffic engine runs: arrivals decode by geometric skip-sampling over
// the per-lane, per-class subscriber lists on per-lane streams — tick
// cost scales with arrivals and live flows, not population, and the
// draw sequences are lane-confined exactly like the traffic engine's
// (fleet drives a realm sequentially, so shard count never shows in
// results).
func (r *realmSim) runTicks(day int, p traffic.Profile) {
	var rates [3]float64
	for c := 0; c < 3; c++ {
		rates[c] = p.FlowsPerTick * traffic.ClassRate(p, traffic.Class(c))
	}
	holdSpan := uint32(2*p.FlowHoldTicks - 1)
	epoch := time.Unix(0, 0)
	for t := day * p.DayTicks; t < (day+1)*p.DayTicks; t++ {
		now := epoch.Add(time.Duration(t) * p.TickStep)
		r.eng.Sweep(now)
		df := traffic.DiurnalFactor(p, t)
		var lambda, expNeg [3]float64
		for c := range rates {
			lambda[c] = rates[c] * df
			expNeg[c] = math.Exp(-lambda[c])
		}
		for j := range r.subs {
			sub := &r.subs[j]
			if !sub.active || sub.head < 0 {
				continue
			}
			r.refreshFlows(sub, now)
		}
		for l := range r.laneSubs {
			fr := &r.frLanes[l]
			for c := 0; c < 3; c++ {
				if lambda[c] <= 0 {
					continue
				}
				list := r.laneSubs[l][c]
				traffic.ForEachArrival(fr, len(list), lambda[c], expNeg[c], func(i, k int) {
					j := list[i]
					sub := &r.subs[j]
					addr := subAddr(int(j))
					for ; k > 0; k-- {
						r.dstSeqs[l]++
						seq := r.dstSeqs[l]
						f := netaddr.FlowOf(netaddr.UDP,
							netaddr.EndpointOf(addr, uint16(1024+fr.Intn(64512))),
							netaddr.EndpointOf(trafficDstBase+netaddr.Addr(uint32(seq)), uint16(443+(seq>>32))))
						hold := 1 + fr.Intn(holdSpan)
						r.openFlow(sub, f, int32(hold), now)
					}
				})
			}
		}
		r.sampleTick()
	}
}

// refreshFlows walks one subscriber's flow list: live flows refresh
// their mappings (stale handles fall back to the full translation
// path), and flows that expire or can get no mapping die back to the
// freelist.
func (r *realmSim) refreshFlows(sub *fleetSub, now time.Time) {
	prev := int32(-1)
	for idx := sub.head; idx >= 0; {
		nd := &r.arena[idx]
		next := nd.next
		ok := r.eng.Refresh(nd.ref, nd.f.Dst, now)
		if !ok {
			var v nat.Verdict
			_, nd.ref, v = r.eng.TranslateOutRef(nd.f, now)
			ok = v == nat.Ok
		}
		if ok {
			r.refreshes++
		}
		nd.ticksLeft--
		if nd.ticksLeft > 0 && ok {
			prev = idx
		} else {
			if prev >= 0 {
				r.arena[prev].next = next
			} else {
				sub.head = next
			}
			if next < 0 {
				sub.tail = prev
			}
			nd.next = r.freeHead
			r.freeHead = idx
		}
		idx = next
	}
}

// openFlow translates a fresh flow and, on success, links it onto the
// subscriber's list from the arena freelist.
func (r *realmSim) openFlow(sub *fleetSub, f netaddr.Flow, hold int32, now time.Time) {
	if _, ref, v := r.eng.TranslateOutRef(f, now); v == nat.Ok {
		var ni int32
		if r.freeHead >= 0 {
			ni = r.freeHead
			r.freeHead = r.arena[ni].next
		} else {
			r.arena = append(r.arena, flowNode{})
			ni = int32(len(r.arena) - 1)
		}
		r.arena[ni] = flowNode{f: f, ref: ref, ticksLeft: hold, next: -1}
		if sub.tail >= 0 {
			r.arena[sub.tail].next = ni
		} else {
			sub.head = ni
		}
		sub.tail = ni
	}
}

// sampleTick records the tick's concurrent-port distribution sample and
// utilization peak.
func (r *realmSim) sampleTick() {
	r.lc.Fold(&r.classHists, &r.allHist)
	ps := r.eng.PortStats()
	if udpCapacity := ps.Capacity / 2; udpCapacity > 0 {
		if u := float64(ps.InUse) / float64(udpCapacity); u > r.peakUtil {
			r.peakUtil = u
		}
	}
}

// trafficDstBase mirrors the traffic engine's synthetic remote space.
var trafficDstBase = netaddr.MustParseAddr("8.0.0.0")

// Observation sampling salts.
const (
	vantageSalt = 0xA5A5_5A5A_0F0F_F0F0
	noiseSalt   = 0x0123_4567_89AB_CDEF
)

// hash01 maps (seed, realm, day, salt) to a uniform [0,1) variate — a
// pure function, so observation sampling is independent of execution
// order and of checkpoint placement.
func hash01(seed int64, realm, day int, salt uint64) float64 {
	x := uint64(seed) ^ salt
	x ^= uint64(realm+1) * 0x9E3779B97F4A7C15
	x ^= uint64(day+1) * 0xBF58476D1CE4E5B9
	fr := traffic.NewFastRand(x)
	return fr.Float64()
}

// realmSeedMix is the odd constant mixing a realm's index into the run
// seed (a distinct stream family from the traffic engine's).
const realmSeedMix = -0x7EE3_62F5_A2B7_91E3

// Sim is a running fleet simulation, stepped a day at a time.
type Sim struct {
	cfg     Config // normalized: defaults applied
	rawObs  ObservationConfig
	day     int
	events  []Event
	evIdx   int
	applied int
	realms  []*realmSim
	// faultsInjected counts applied fault events by kind — lane-down,
	// lane-up, restart — for the daemon's metrics surface. Recomputed
	// from the timeline on resume, so it never needs serializing.
	faultsInjected [3]uint64
}

// countFault tallies ev if it is a fault kind.
func (s *Sim) countFault(ev Event) {
	switch ev.Kind {
	case EventLaneDown:
		s.faultsInjected[0]++
	case EventLaneUp:
		s.faultsInjected[1]++
	case EventRestart:
		s.faultsInjected[2]++
	}
}

// FaultsInjected reports the applied fault-event counts, indexed
// lane-down, lane-up, restart.
func (s *Sim) FaultsInjected() [3]uint64 { return s.faultsInjected }

// LanesDown reports the fleet-wide count of pool lanes currently dark.
func (s *Sim) LanesDown() int {
	total := 0
	for _, r := range s.realms {
		if r.eng != nil {
			total += r.eng.LanesDown()
		}
	}
	return total
}

// New builds a fleet simulation at day zero.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.withDefaults()
	s := &Sim{cfg: d, events: d.Timeline.sorted()}
	ringLen := d.Obs.Windows[len(d.Obs.Windows)-1]
	if ringLen > d.Days {
		ringLen = d.Days
	}
	for i, spec := range d.Carriers {
		r := &realmSim{
			idx:      i,
			spec:     spec,
			poolSize: len(spec.NAT.ExternalIPs),
			freeHead: -1,
			fr:       traffic.NewFastRand(uint64(d.Seed + int64(i+1)*realmSeedMix)),
			evRing:   make([]bool, ringLen),
			enRing:   make([]bool, ringLen),
		}
		r.addSubscribers(spec.Subscribers, d.Profile)
		r.rebuildLC()
		if spec.CGNEnabled {
			r.provisionEngine(d.Shards)
			r.enabled = true
		}
		s.realms = append(s.realms, r)
	}
	return s, nil
}

// Day reports the next virtual day to run (== days completed).
func (s *Sim) Day() int { return s.day }

// Done reports whether the horizon is reached.
func (s *Sim) Done() bool { return s.day >= s.cfg.Days }

// StepDay applies the day's scripted events and runs its ticks across
// the realm worker pool. Realms accumulate privately, so results are
// identical at any Workers value.
func (s *Sim) StepDay() {
	if s.Done() {
		return
	}
	for s.evIdx < len(s.events) && s.events[s.evIdx].Day == s.day {
		ev := s.events[s.evIdx]
		s.realms[ev.Carrier].apply(ev, s.cfg.Profile, s.cfg.Shards)
		s.countFault(ev)
		s.evIdx++
		s.applied++
	}
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(s.realms) {
		workers = len(s.realms)
	}
	if workers <= 1 {
		for _, r := range s.realms {
			r.runDay(s.day, s.cfg.Profile, s.cfg.Obs, s.cfg.Seed)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					s.realms[i].runDay(s.day, s.cfg.Profile, s.cfg.Obs, s.cfg.Seed)
				}
			}()
		}
		for i := range s.realms {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	s.day++
}

// Run executes a whole fleet simulation.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		s.StepDay()
	}
	return s.Result(), nil
}

// aggregationFootprint reports the total element count of every
// duration-facing accumulator — the observation rings and the sample
// histograms. The bounded-memory test pins this to be independent of
// the virtual horizon.
func (s *Sim) aggregationFootprint() int {
	total := 0
	for _, r := range s.realms {
		total += len(r.evRing) + len(r.enRing)
		for c := range r.classHists {
			counts, _ := r.classHists[c].State()
			total += len(counts)
		}
		counts, _ := r.allHist.State()
		total += len(counts)
	}
	return total
}

// RealmResult is one carrier's outcome.
type RealmResult struct {
	ID          string
	Cellular    bool
	EnabledEnd  bool
	Subscribers int
	Created     uint64
	Expired     uint64
	Refreshes   uint64
	Failures    uint64
	PeakUtil    float64
	// Digest is the realm engine's full state digest ("disabled" when
	// the carrier ends the run without CGN) — the resume determinism
	// anchor.
	Digest string
}

// WindowScore is E21's detection outcome for one observation window:
// confusion counts and derived rates for a detector that watched the
// fleet for the run's last Days days.
type WindowScore struct {
	Days      int
	Threshold int
	TP, FP    int
	FN, TN    int
	Precision float64
	Recall    float64
	F1        float64
}

// Result is the aggregate outcome of a fleet run.
type Result struct {
	Days           int
	Carriers       int
	SubscribersEnd int
	EventsApplied  int
	Realms         []RealmResult
	ByClass        [3]traffic.ClassStat
	All            traffic.ClassStat
	PeakUtil       float64
	Created        uint64
	Expired        uint64
	Refreshes      uint64
	Failures       uint64
	// Windows is the E21 dataset: detection quality as a function of
	// observation duration, ascending.
	Windows []WindowScore
}

// Result aggregates the realms in input order.
func (s *Sim) Result() *Result {
	res := &Result{
		Days:          s.day,
		Carriers:      len(s.realms),
		EventsApplied: s.applied,
	}
	var classHists [3]traffic.Hist
	var allHist traffic.Hist
	for _, r := range s.realms {
		rr := RealmResult{
			ID:          r.spec.ID,
			Cellular:    r.spec.Cellular,
			EnabledEnd:  r.enabled,
			Subscribers: r.activeSubscribers(),
			Created:     r.created,
			Expired:     r.expired,
			Refreshes:   r.refreshes,
			Failures:    r.failures(),
			PeakUtil:    r.peakUtil,
			Digest:      "disabled",
		}
		if r.eng != nil {
			rr.Digest = r.eng.StateDigest()
		}
		res.Realms = append(res.Realms, rr)
		res.SubscribersEnd += rr.Subscribers
		res.Created += rr.Created
		res.Expired += rr.Expired
		res.Refreshes += rr.Refreshes
		res.Failures += rr.Failures
		if rr.PeakUtil > res.PeakUtil {
			res.PeakUtil = rr.PeakUtil
		}
		for c := range classHists {
			res.ByClass[c].Subscribers += r.classSubs[c]
			classHists[c].Merge(&r.classHists[c])
		}
		allHist.Merge(&r.allHist)
	}
	for c := range classHists {
		h := &classHists[c]
		res.ByClass[c].Class = traffic.Class(c)
		res.ByClass[c].Samples = h.Count()
		res.ByClass[c].Median = h.Quantile(0.5)
		res.ByClass[c].P99 = h.Quantile(0.99)
		res.ByClass[c].Max = h.Max()
	}
	res.All = traffic.ClassStat{
		Subscribers: res.SubscribersEnd,
		Samples:     allHist.Count(),
		Median:      allHist.Quantile(0.5),
		P99:         allHist.Quantile(0.99),
		Max:         allHist.Max(),
	}
	res.Windows = s.scoreWindows()
	return res
}

// String summarizes an event count mismatch in errors.
func (s *Sim) String() string {
	return fmt.Sprintf("fleet.Sim{day %d/%d, %d carriers}", s.day, s.cfg.Days, len(s.realms))
}
