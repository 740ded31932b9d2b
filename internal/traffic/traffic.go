package traffic

import (
	"math"
	"math/rand"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/par"
)

// Class is a subscriber's flow-rate class. The §6.2 distribution is
// heavy-tailed: most subscribers hold a handful of concurrent ports
// while a small heavy-hitter population drives the peaks far above the
// median (Figure 8).
type Class uint8

// Subscriber rate classes.
const (
	Light Class = iota
	Median
	Heavy
	numClasses
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Light:
		return "light"
	case Median:
		return "median"
	case Heavy:
		return "heavy"
	default:
		return "class?"
	}
}

// RealmSpec describes one CGN realm the engine should load: the NAT
// configuration to replay (a fresh NAT is built from it, so the engine
// never mutates campaign state) and the subscriber population behind it.
type RealmSpec struct {
	// ID labels the realm in results (e.g. "AS64512/0").
	ID       string
	Cellular bool
	// NAT is the realm's carrier NAT configuration. Config.Seed makes
	// the replica's random choices match the deployed device's.
	NAT nat.Config
	// Subscribers is the internal population size.
	Subscribers int
}

// Config parameterizes one engine run.
type Config struct {
	// Seed drives every random draw (subscriber classes, arrivals, flow
	// lifetimes, source ports). Realm index is mixed in so realms stay
	// independent of their order-neighbors' draw counts.
	Seed    int64
	Profile Profile
	Realms  []RealmSpec
	// Workers is the realm worker-pool size; 0 or 1 runs every realm on
	// the calling goroutine. Each realm draws from its own RNG stream
	// and accumulates into private state that Run merges in realm input
	// order, so Result is byte-identical at any worker count.
	Workers int
	// Shards is how many goroutines split each realm. Every realm runs
	// on the intra-realm sharded engine (nat.NewSharded): the realm's
	// external pool splits into per-IP lanes, lanes group into shards,
	// and one goroutine drives each shard between per-tick barriers.
	// The count is a pure resource knob — any value below 1 means 1,
	// values above the realm's pool size clamp to it, and Result is
	// identical at every value. Total concurrency is Workers x Shards
	// goroutines.
	Shards int
	// Faults is the seeded virtual-time fault schedule: pool-IP outages
	// and engine restarts. Run panics on a plan that fails validation,
	// like nat.New on an unusable Config. The zero plan is exactly the
	// pre-fault engine.
	Faults FaultPlan
	// Observer, when set, is called after every realm tick with a
	// read-only view of the realm's sharded NAT. Tests check state
	// through it, and perfbench's traced metro-day run samples
	// NumMappings and PortStats through it every tick. With Workers > 1
	// the observer is called concurrently from worker goroutines (never
	// concurrently for the same realm), and always between shard
	// barriers, never while shard workers run.
	Observer func(realm RealmSpec, tick int, now time.Time, n nat.View)
}

// ClassStat summarizes the per-subscriber concurrent-port distribution
// of one rate class over every (subscriber, tick) sample.
type ClassStat struct {
	Class       Class
	Subscribers int
	Samples     uint64
	// Median, P99 and Max are concurrent external ports held by one
	// subscriber at one sampling instant.
	Median, P99, Max int
}

// RealmStat is one realm's outcome over the run.
type RealmStat struct {
	ID          string
	Cellular    bool
	Subscribers int
	// PeakUtil is the realm's highest instantaneous port-space
	// utilization: ports in use over the UDP share of the capacity (the
	// engine generates UDP flows only).
	PeakUtil float64
	// Created / Expired count mappings over the run; Failures are
	// allocation failures (port-space plus quota exhaustion).
	Created, Expired, Failures uint64
}

// Result is the aggregate outcome of one engine run — the E18 dataset.
type Result struct {
	// Profile echoes the run's profile with defaults applied.
	Profile Profile
	// Realms lists per-realm outcomes in input order (realms without
	// subscribers are skipped).
	Realms []RealmStat
	// Subscribers is the total driven population.
	Subscribers int
	// ByClass and All summarize per-subscriber concurrent port usage
	// over every (subscriber, tick) sample.
	ByClass [3]ClassStat
	All     ClassStat
	// MeanUtil[t] is the mean instantaneous port-space utilization
	// across realms at tick t; PeakTick is the argmax.
	MeanUtil []float64
	PeakUtil float64
	PeakTick int
	// Flow accounting over all realms.
	Created, Expired, Refreshes, Failures uint64
	// Adversarial is the E19 collateral-damage dataset; entirely zero
	// (Enabled false) unless the profile offers adversarial load.
	Adversarial AdversarialStats
	// Degradation is the E22 fault-injection dataset; entirely zero
	// (Enabled false) unless the config schedules faults.
	Degradation DegradationStats
}

// AdversarialStats is the E19 dataset: what adversarial load does to the
// legitimate population, with both sides' books kept separately. With
// adversaries enabled, Result.ByClass / Result.All cover the legitimate
// subscribers only — attackers are censused here instead.
type AdversarialStats struct {
	// Enabled mirrors Profile.AttacksEnabled(); when false every other
	// field is exactly zero.
	Enabled bool
	// Attackers is the flooder population summed over realms.
	Attackers int
	// LegitAttempts counts legitimate new-flow allocation attempts
	// (refreshes and their fallback re-creations excluded) and
	// LegitFailures the ones the NAT refused for any reason — the ratio
	// is the collateral-damage headline E19 reports.
	LegitAttempts, LegitFailures uint64
	// AttackerAttempts / AttackerFailures keep the same books for flood
	// flows: a well-tuned defense starves these, not the legit column.
	AttackerAttempts, AttackerFailures uint64
	// ScannerProbes counts inbound scanner probes offered and
	// ScannerBlocked how many the NAT's inbound filtering dropped.
	ScannerProbes, ScannerBlocked uint64
	// Defense and exhaustion counters summed over realms: quota
	// refusals, port-space exhaustion, token-bucket rate-limit drops and
	// idle-mapping evictions (both sides' traffic combined — the NAT
	// does not know who is evil).
	QuotaDrops, NoPorts, RateLimited, Evictions uint64
	// AttackerPorts summarizes attacker concurrent-port samples, the
	// counterpart of Result.All for the flooder population; p99
	// inflation shows up as the gap between the two.
	AttackerPorts ClassStat
}

// LegitFailRate is LegitFailures over LegitAttempts (0 when idle).
func (a AdversarialStats) LegitFailRate() float64 {
	if a.LegitAttempts == 0 {
		return 0
	}
	return float64(a.LegitFailures) / float64(a.LegitAttempts)
}

// AttackerFailRate is AttackerFailures over AttackerAttempts.
func (a AdversarialStats) AttackerFailRate() float64 {
	if a.AttackerAttempts == 0 {
		return 0
	}
	return float64(a.AttackerFailures) / float64(a.AttackerAttempts)
}

// Enabled reports whether the run simulated any time.
func (r *Result) Enabled() bool { return r.Profile.Enabled() && len(r.Realms) > 0 }

// flow is one live subscriber flow. A lane keeps its flows in one
// slice, subscriber ascending and in arrival (FIFO) order within a
// subscriber — the order allocation retries hit the NAT in, which the
// determinism contract pins. ref is the flow's mapping handle: while
// ticksLeft > 0 the flow refreshes the mapping through it every tick.
type flow struct {
	ticksLeft int32
	f         netaddr.Flow
	ref       nat.MappingRef
}

// member is the index of the flow's subscriber, read off its source
// address (subscriberBase + index), so a flow needs no field for it.
func (f *flow) member() int32 { return int32(f.f.Src.Addr - subscriberBase) }

// Hist is an exact integer histogram of concurrent-port samples; counts
// are small (bounded by quota or port space), so percentiles come from a
// dense array walk.
type Hist struct {
	counts []uint64
	n      uint64
}

// AddN records k samples of value v (a negative v counts as 0): the
// live-count fold adds a whole bucket at once.
func (h *Hist) AddN(v int, k uint64) {
	if k == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		h.grow(v + 1)
	}
	h.counts[v] += k
	h.n += k
}

// grow widens counts to at least size, doubling capacity so a slowly
// rising maximum costs O(log max) reallocations rather than one per new
// peak. Values beyond the previous length stay zero, so nothing
// observable changes.
func (h *Hist) grow(size int) {
	newLen := 2 * len(h.counts)
	if newLen < size {
		newLen = size
	}
	grown := make([]uint64, newLen)
	copy(grown, h.counts)
	h.counts = grown
}

// reset empties the histogram, keeping its buckets for reuse.
func (h *Hist) reset() {
	clear(h.counts)
	h.n = 0
}

// Merge folds o into h. The parallel engine accumulates one Hist set per
// realm and merges them in realm input order; counts are plain sums, so
// the merged histogram is identical to one filled by a single
// sequential run.
func (h *Hist) Merge(o *Hist) {
	if len(o.counts) > len(h.counts) {
		h.grow(len(o.counts))
	}
	for v, c := range o.counts {
		h.counts[v] += c
	}
	h.n += o.n
}

// Quantile returns the smallest value whose cumulative count reaches
// rank ceil(q*n); 0 on an empty histogram.
func (h *Hist) Quantile(q float64) int {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for v, c := range h.counts {
		cum += c
		if cum >= rank {
			return v
		}
	}
	return len(h.counts) - 1
}

func (h *Hist) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return 0
}

// Summary is the histogram as the ClassStat row of class c over the
// given number of subscribers.
func (h *Hist) Summary(c Class, subscribers int) ClassStat {
	return ClassStat{
		Class:       c,
		Subscribers: subscribers,
		Samples:     h.n,
		Median:      h.Quantile(0.5),
		P99:         h.Quantile(0.99),
		Max:         h.Max(),
	}
}

// subscriberBase anchors the dense synthetic 10.64/16-style internal
// address block the engine places subscribers in; dstBase anchors the
// synthetic remote-destination space.
var (
	subscriberBase = netaddr.MustParseAddr("10.64.0.1")
	dstBase        = netaddr.MustParseAddr("8.0.0.0")
	// atkDstBase anchors the flood flows' synthetic destination space
	// (disjoint from dstBase so attack traffic reads distinctly in
	// digests); scannerAddr is the external scanner's source.
	atkDstBase  = netaddr.MustParseAddr("6.0.0.0")
	scannerAddr = netaddr.MustParseAddr("203.0.113.7")
)

// attackerCount returns how many of n fresh members the profile
// designates as flooders: the leading int(AttackerFrac·n) by index.
// Designation by index costs no random draw.
func attackerCount(p Profile, n int) int {
	if p.AttackerFrac <= 0 || p.AttackerFlowsPerTick <= 0 {
		return 0
	}
	k := int(p.AttackerFrac * float64(n))
	if k > n {
		k = n
	}
	return k
}

// A realm's per-lane member lists and live-count buckets keep one row
// per class, then atkRow for the flooders.
const (
	atkRow  = int(numClasses)
	numRows = atkRow + 1
)

// row returns m's row — its class, or atkRow for a flooder — and false
// for a retired member, which sits in no row.
func (m Member) row() (int, bool) {
	switch {
	case m.Retired:
		return 0, false
	case m.Attacker:
		return atkRow, true
	}
	return int(m.Class), true
}

// liveCounts tracks, per row, how many of a shard's members currently
// hold exactly v live mappings. The lanes' session hooks move members
// between buckets as their NAT session counts change, and the per-tick
// sampling fold adds each bucket's population to the histograms in one
// AddN — the same sample multiset a per-member loop would record, for
// O(distinct values) work per tick instead of O(members).
type liveCounts struct {
	cnt [numRows][]uint64
}

func newLiveCounts(members [numRows]int) *liveCounts {
	lc := &liveCounts{}
	for row := range lc.cnt {
		lc.cnt[row] = make([]uint64, 8)
		lc.cnt[row][0] = uint64(members[row])
	}
	return lc
}

// Move shifts one member of row from bucket from to bucket to, doubling
// the buckets until to is in range. Hooks move by one; rebuilds jump a
// member from 0 straight to its session count.
func (lc *liveCounts) Move(row int, from, to int32) {
	s := lc.cnt[row]
	s[from]--
	for int(to) >= len(s) {
		grown := make([]uint64, 2*len(s))
		copy(grown, s)
		lc.cnt[row] = grown
		s = grown
	}
	s[to]++
}

// Fold samples every member once, at its current bucket value: the
// class rows into the class and aggregate histograms, the flooders into
// atk.
func (lc *liveCounts) Fold(classHists *[numClasses]Hist, all, atk *Hist) {
	for c := range classHists {
		for v, k := range lc.cnt[c] {
			if k != 0 {
				classHists[c].AddN(v, k)
				all.AddN(v, k)
			}
		}
	}
	for v, k := range lc.cnt[atkRow] {
		atk.AddN(v, k)
	}
}

// diurnalFactor modulates arrival rates over the day: trough (1-Amp) at
// tick 0 of each period, peak (1+Amp) mid-period.
func diurnalFactor(p Profile, tick int) float64 {
	if p.DiurnalAmp == 0 || p.DayTicks == 0 {
		return 1
	}
	frac := float64(tick%p.DayTicks) / float64(p.DayTicks)
	f := 1 + p.DiurnalAmp*math.Sin(2*math.Pi*frac-math.Pi/2)
	if f < 0 {
		f = 0
	}
	return f
}

// classRate is the per-class multiplier on the median arrival rate.
func classRate(p Profile, c Class) float64 {
	switch c {
	case Light:
		return 0.2
	case Heavy:
		return p.HeavyMult
	default:
		return 1
	}
}

// realmOut is one realm's private accumulator set. Every realm gets its
// own, and Run merges them in realm input order whatever order the
// workers finished in — fixing even the float-addition order into
// MeanUtil — so Result is byte-identical at any worker count.
type realmOut struct {
	stat      RealmStat
	classSubs [3]int
	tally     Tally
	// util[t] is this realm's instantaneous port-space utilization at
	// tick t (the realm's addend into Result.MeanUtil).
	util []float64
	// degA/degF are the realm's per-tick legitimate allocation series;
	// nil unless the config schedules faults.
	degA, degF []uint64
}

// advAccum is the adversarial accumulator, kept per shard and drained
// in shard order into the realm's Tally, then merged in realm order.
// Its counters stay zero when the profile offers no adversaries, except
// the engine's refusal and eviction counts, which Run reports only with
// adversaries enabled.
type advAccum struct {
	attackers                                   int
	legitAttempts, legitFailures                uint64
	attackerAttempts, attackerFailures          uint64
	scannerProbes, scannerBlocked               uint64
	quotaDrops, noPorts, rateLimited, evictions uint64
	attackerHist                                Hist
}

func (a *advAccum) merge(o *advAccum) {
	a.attackers += o.attackers
	a.legitAttempts += o.legitAttempts
	a.legitFailures += o.legitFailures
	a.attackerAttempts += o.attackerAttempts
	a.attackerFailures += o.attackerFailures
	a.scannerProbes += o.scannerProbes
	a.scannerBlocked += o.scannerBlocked
	a.quotaDrops += o.quotaDrops
	a.noPorts += o.noPorts
	a.rateLimited += o.rateLimited
	a.evictions += o.evictions
	a.attackerHist.Merge(&o.attackerHist)
}

// runRealm steps one realm's kernel over the whole horizon, applying
// the fault plan's boundaries between steps. after, when non-nil, sees
// the kernel after every tick (tests audit its invariants there).
func runRealm(cfg Config, p Profile, spec RealmSpec, realmIdx int, after func(*Realm)) *realmOut {
	// Mix the realm index into the seed with a 64-bit odd constant so
	// realms draw independent streams whatever their order. The realm RNG
	// serves the class draws and seeds the per-lane streams; the lanes
	// draw allocation randomness from their own per-lane streams.
	rng := rand.New(rand.NewSource(cfg.Seed + int64(realmIdx+1)*-0x61c8864680b583eb))
	pop := NewMembers(p, spec.Subscribers, rng.Float64)
	k := NewRealm(p, spec.NAT, cfg.Shards, pop, rng.Uint64)
	out := &realmOut{
		stat: RealmStat{ID: spec.ID, Cellular: spec.Cellular, Subscribers: spec.Subscribers},
		util: make([]float64, p.Ticks),
	}
	for _, m := range pop {
		if m.Attacker {
			out.tally.adv.attackers++
		} else {
			out.classSubs[m.Class]++
		}
	}
	var bounds []faultBoundary
	if cfg.Faults.Enabled() {
		bounds = cfg.Faults.boundaries(k.NAT().NumLanes(), faultSalt(cfg.Seed, realmIdx))
		out.degA = make([]uint64, p.Ticks)
		out.degF = make([]uint64, p.Ticks)
	}
	each := func(tk Tick) {
		out.util[tk.T] = tk.Util
		if out.degA != nil {
			out.degA[tk.T] = tk.Attempts
			out.degF[tk.T] = tk.Failures
		}
		if cfg.Observer != nil {
			cfg.Observer(spec, tk.T, tk.Now, k.NAT())
		}
		if after != nil {
			after(k)
		}
	}
	from := 0
	for _, fb := range bounds {
		if fb.tick >= p.Ticks {
			break
		}
		k.Step(from, fb.tick, &out.tally, each)
		k.ApplyFaults(fb.ups, fb.downs, fb.restart, &out.tally)
		from = fb.tick
	}
	k.Step(from, p.Ticks, &out.tally, each)
	out.stat.PeakUtil = out.tally.PeakUtil
	out.stat.Created = out.tally.Created
	out.stat.Expired = out.tally.Expired
	out.stat.Failures = out.tally.Failures
	return out
}

// Run executes the engine: every realm on the worker pool (input order
// when Workers <= 1), every tick in virtual time, deterministically. The
// virtual clock starts at the Unix epoch like the simnet clock; wall
// time is never read.
func Run(cfg Config) *Result { return run(cfg, nil) }

// run is Run with runRealm's per-tick kernel callback.
func run(cfg Config, after func(*Realm)) *Result {
	p := cfg.Profile.WithDefaults()
	res := &Result{Profile: p}
	if !p.Enabled() {
		return res
	}
	if err := cfg.Faults.Validate(p.Ticks); err != nil {
		panic("traffic: " + err.Error())
	}
	// Realms without subscribers are skipped entirely (they appear
	// nowhere in the result, not even as zero rows).
	type job struct {
		idx  int // index into cfg.Realms: the RNG stream and merge position
		spec RealmSpec
	}
	var jobs []job
	for i, spec := range cfg.Realms {
		if spec.Subscribers > 0 {
			jobs = append(jobs, job{idx: i, spec: spec})
		}
	}
	if len(jobs) == 0 {
		return res
	}

	outs := make([]*realmOut, len(jobs))
	par.Each(len(jobs), cfg.Workers, func(ji int) {
		outs[ji] = runRealm(cfg, p, jobs[ji].spec, jobs[ji].idx, after)
	})

	// Ordered merge: realm input order, whatever order the workers
	// finished in.
	res.MeanUtil = make([]float64, p.Ticks)
	var classHists [3]Hist
	var allHist Hist
	var adv advAccum
	if cfg.Faults.Enabled() {
		res.Degradation.Enabled = true
		res.Degradation.Attempts = make([]uint64, p.Ticks)
		res.Degradation.Failures = make([]uint64, p.Ticks)
	}
	for _, o := range outs {
		res.Realms = append(res.Realms, o.stat)
		res.Subscribers += o.stat.Subscribers
		res.Created += o.stat.Created
		res.Expired += o.stat.Expired
		res.Failures += o.stat.Failures
		res.Refreshes += o.tally.Refreshes
		for c := range classHists {
			res.ByClass[c].Subscribers += o.classSubs[c]
			classHists[c].Merge(&o.tally.ClassHists[c])
		}
		allHist.Merge(&o.tally.AllHist)
		adv.merge(&o.tally.adv)
		if o.degA != nil {
			for t := range o.degA {
				res.Degradation.Attempts[t] += o.degA[t]
				res.Degradation.Failures[t] += o.degF[t]
			}
			res.Degradation.Disrupted += o.tally.disrupted
			res.Degradation.FaultEvents += o.tally.faultEvents
		}
		for t, u := range o.util {
			res.MeanUtil[t] += u
		}
	}
	loaded := len(outs)
	for t := range res.MeanUtil {
		res.MeanUtil[t] /= float64(loaded)
		if res.MeanUtil[t] > res.PeakUtil {
			res.PeakUtil = res.MeanUtil[t]
			res.PeakTick = t
		}
	}
	for c := Class(0); c < numClasses; c++ {
		res.ByClass[c] = classHists[c].Summary(c, res.ByClass[c].Subscribers)
	}
	// All covers the tracked (legitimate) population — identical to
	// res.Subscribers except when adversaries carve attackers out.
	res.All = allHist.Summary(0, res.ByClass[0].Subscribers+
		res.ByClass[1].Subscribers+res.ByClass[2].Subscribers)
	if p.AttacksEnabled() {
		res.Adversarial = AdversarialStats{
			Enabled:          true,
			Attackers:        adv.attackers,
			LegitAttempts:    adv.legitAttempts,
			LegitFailures:    adv.legitFailures,
			AttackerAttempts: adv.attackerAttempts,
			AttackerFailures: adv.attackerFailures,
			ScannerProbes:    adv.scannerProbes,
			ScannerBlocked:   adv.scannerBlocked,
			QuotaDrops:       adv.quotaDrops,
			NoPorts:          adv.noPorts,
			RateLimited:      adv.rateLimited,
			Evictions:        adv.evictions,
			AttackerPorts:    adv.attackerHist.Summary(0, adv.attackers),
		}
	}
	return res
}
