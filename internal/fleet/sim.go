package fleet

import (
	"fmt"

	"cgn/internal/fastrand"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/par"
	"cgn/internal/traffic"
)

// realmSim is one carrier's live state. Everything in here is owned by
// exactly one worker during a day step; cross-realm aggregation happens
// only at result time, in realm input order.
type realmSim struct {
	idx  int
	spec CarrierSpec

	// The provisioning state — a pure function of the spec and the
	// timeline so far, so Resume replays it instead of trusting a
	// checkpoint. provision counts pool re-provisionings (0 = the
	// day-zero pool); poolSize is the current pool's size. epoch counts
	// engine builds — every enable or re-provision starts a fresh
	// allocation stream.
	enabled                    bool
	provision, poolSize, epoch int

	// k is the realm kernel driving the carrier's CGN; nil exactly while
	// CGN is disabled.
	k *traffic.Realm
	// pop is the subscriber population. Members keep their index for
	// life — member j's address is the kernel's subscriber base plus j —
	// and churned-out members stay in the slice, retired.
	pop []traffic.Member
	// fr is the realm stream: member classes and the seeds of each
	// kernel's per-lane streams.
	fr fastrand.Rand
	// tally accumulates the realm's samples and counters across every
	// kernel the carrier has run.
	tally traffic.Tally

	// Windowed observation state: fixed-size day rings (length = the
	// longest observation window, clamped to the horizon) holding the
	// per-day evidence and enablement bits E21 scores from. This is the
	// entirety of the per-day record — bounded however long the run.
	evRing, enRing []bool
}

// newRealmSim is carrier idx at day zero, before any engine exists:
// provisioning state from the spec, the realm stream seeded, the rings
// sized.
func newRealmSim(idx int, spec CarrierSpec, seed int64, ringLen int) *realmSim {
	r := &realmSim{
		idx:      idx,
		spec:     spec,
		poolSize: len(spec.NAT.ExternalIPs),
		fr:       fastrand.Rand(uint64(seed + int64(idx+1)*realmSeedMix)),
		evRing:   make([]bool, ringLen),
		enRing:   make([]bool, ringLen),
	}
	if spec.CGNEnabled {
		r.enabled, r.epoch = true, 1
	}
	return r
}

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

// replan applies a provisioning event to the provisioning state and
// reports whether the live engine must be torn down and whether a fresh
// one must be built. Resume replays it over the timeline; apply acts on
// its verdict.
func (r *realmSim) replan(ev Event) (teardown, build bool) {
	switch ev.Kind {
	case EventDisable:
		if r.enabled {
			r.enabled = false
			return true, false
		}
	case EventEnable:
		if !r.enabled {
			r.enabled = true
			r.epoch++
			return false, true
		}
	case EventReprovision:
		r.provision++
		r.poolSize = ev.Arg
		if r.enabled {
			r.epoch++
			return true, true
		}
	}
	return false, false
}

// build starts a fresh kernel for the current configuration, seeding
// its per-lane streams from the realm stream — a fixed draw count per
// build, in lane order, so the sequence is deterministic and survives
// checkpointing through the serialized realm stream.
func (r *realmSim) build(p traffic.Profile, shards int) {
	r.k = traffic.NewRealm(p, r.engineConfig(), shards, r.pop, r.fr.Next)
}

// apply executes one timeline event on the realm. Population changes and
// faults go through the kernel's repartition, so their effect on live
// flows is the kernel's one semantics.
func (r *realmSim) apply(ev Event, p traffic.Profile, shards int) {
	switch ev.Kind {
	case EventDisable, EventEnable, EventReprovision:
		// Tearing down discards the NAT with every mapping and flow; the
		// tally already holds the engine's counters.
		teardown, rebuild := r.replan(ev)
		if teardown {
			r.k = nil
		}
		if rebuild {
			r.build(p, shards)
		}
	case EventGrow, EventChurn:
		if ev.Kind == EventChurn {
			// Retire the Arg longest-standing members (lowest indices);
			// their mappings idle out like any abandoned binding.
			left := ev.Arg
			for j := range r.pop {
				if left == 0 {
					break
				}
				if !r.pop[j].Retired {
					r.pop[j].Retired = true
					left--
				}
			}
		}
		r.pop = append(r.pop, traffic.NewMembers(p, ev.Arg, r.fr.Float64)...)
		if r.k != nil {
			r.k.Repopulate(r.pop, &r.tally)
		}
	case EventLaneDown, EventLaneUp, EventRestart:
		// A disabled carrier has no lanes to lose.
		if r.k == nil {
			return
		}
		lane := []int{ev.Arg % r.k.NAT().NumLanes()}
		switch ev.Kind {
		case EventLaneDown:
			r.k.ApplyFaults(nil, lane, false, &r.tally)
		case EventLaneUp:
			r.k.ApplyFaults(lane, nil, false, &r.tally)
		default:
			r.k.ApplyFaults(nil, nil, true, &r.tally)
		}
	}
}

// subscribers counts the realm's current (unretired) members and the
// class census — the tracked members, attackers excluded.
func (r *realmSim) subscribers() (n int, census [3]int) {
	for _, m := range r.pop {
		if m.Retired {
			continue
		}
		n++
		if !m.Attacker {
			census[m.Class]++
		}
	}
	return n, census
}

// runDay drives the realm's kernel through one virtual day of ticks,
// then writes the day's observation bits into the rings.
func (r *realmSim) runDay(day int, p traffic.Profile, obs ObservationConfig, seed int64) {
	created := r.tally.Created
	if r.k != nil {
		r.k.Step(day*p.DayTicks, (day+1)*p.DayTicks, &r.tally, nil)
	}
	// The day's observation bits. A CGN-active day (enabled, traffic
	// actually translated) is seen with VantageProb — the chance the
	// observer's vantage points sit behind this CGN and measure today —
	// and any day can yield a spurious positive with NoiseProb.
	if n := len(r.evRing); n > 0 {
		active := r.enabled && r.tally.Created > created
		ev := active && hash01(seed, r.idx, day, vantageSalt) < obs.VantageProb
		ev = ev || hash01(seed, r.idx, day, noiseSalt) < obs.NoiseProb
		r.evRing[day%n] = ev
		r.enRing[day%n] = r.enabled
	}
}

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
	fr := fastrand.Rand(x)
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
		r := newRealmSim(i, spec, d.Seed, ringLen)
		r.pop = traffic.NewMembers(d.Profile, spec.Subscribers, r.fr.Float64)
		if r.enabled {
			r.build(d.Profile, d.Shards)
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
	par.Each(len(s.realms), s.cfg.Workers, func(i int) {
		s.realms[i].runDay(s.day, s.cfg.Profile, s.cfg.Obs, s.cfg.Seed)
	})
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
		for c := range r.tally.ClassHists {
			counts, _ := r.tally.ClassHists[c].State()
			total += len(counts)
		}
		counts, _ := r.tally.AllHist.State()
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
		subs, census := r.subscribers()
		rr := RealmResult{
			ID:          r.spec.ID,
			Cellular:    r.spec.Cellular,
			EnabledEnd:  r.enabled,
			Subscribers: subs,
			Created:     r.tally.Created,
			Expired:     r.tally.Expired,
			Refreshes:   r.tally.Refreshes,
			Failures:    r.tally.Failures,
			PeakUtil:    r.tally.PeakUtil,
			Digest:      "disabled",
		}
		if r.k != nil {
			rr.Digest = r.k.NAT().StateDigest()
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
			res.ByClass[c].Subscribers += census[c]
			classHists[c].Merge(&r.tally.ClassHists[c])
		}
		allHist.Merge(&r.tally.AllHist)
	}
	for c := range classHists {
		res.ByClass[c] = classHists[c].Summary(traffic.Class(c), res.ByClass[c].Subscribers)
	}
	// All covers the tracked population: everyone but attackers.
	res.All = allHist.Summary(0, res.ByClass[0].Subscribers+
		res.ByClass[1].Subscribers+res.ByClass[2].Subscribers)
	res.Windows = s.scoreWindows()
	return res
}

// String summarizes an event count mismatch in errors.
func (s *Sim) String() string {
	return fmt.Sprintf("fleet.Sim{day %d/%d, %d carriers}", s.day, s.cfg.Days, len(s.realms))
}
