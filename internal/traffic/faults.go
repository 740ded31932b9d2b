package traffic

import (
	"fmt"
	"math"
	"sort"
)

// FaultPlan is the engine's seeded virtual-time fault schedule: pool-IP
// outages (lanes going dark, their mappings dropped and their
// subscribers re-pinned to survivors by a deterministic failover hash)
// and whole-engine restarts (all mapping state lost; live flows
// re-establish through the refresh fallback). The lane — one pool IP —
// is the outage's unit, so a plan runs at any Config.Shards. A zero plan
// is exactly the pre-fault engine: no extra draws, no extra state,
// byte-identical results. Run applies each boundary between kernel
// steps through Realm.ApplyFaults — the entry point the fleet engine's
// fault events use too.
//
// The schedule is part of the deterministic universe: which lanes an
// outage takes is a pure function of the seed, the realm and the pool
// size, so results stay byte-identical at any Workers × Shards split.
type FaultPlan struct {
	// Outages lists pool-IP outage windows, ascending and
	// non-overlapping by tick.
	Outages []Outage
	// Restarts lists ticks at which the realm's whole NAT engine
	// restarts (applied before the tick runs), strictly ascending. A
	// restart preserves any outage in progress: lanes down stay down.
	Restarts []int
}

// Outage is one pool-outage window.
type Outage struct {
	// Start is the tick the lanes go dark (applied before the tick
	// runs).
	Start int
	// Ticks is the outage duration; the lanes restore before tick
	// Start+Ticks. An end beyond the run's horizon leaves them down for
	// the rest of the run.
	Ticks int
	// LaneFrac is the fraction of the external pool taken down, rounded
	// up to whole lanes and clamped so at least one lane survives (a
	// single-lane pool therefore cannot lose anything — a carrier with
	// its whole pool dark is a disabled carrier, not a degraded one).
	LaneFrac float64
}

// Enabled reports whether the plan schedules any fault.
func (f FaultPlan) Enabled() bool { return len(f.Outages) > 0 || len(f.Restarts) > 0 }

// Validate checks the plan against a run of the given tick count.
func (f FaultPlan) Validate(ticks int) error {
	end := 0
	for i, o := range f.Outages {
		if o.Start < 0 || o.Start >= ticks {
			return fmt.Errorf("fault outage %d: start tick %d outside run of %d ticks", i, o.Start, ticks)
		}
		if o.Ticks < 1 {
			return fmt.Errorf("fault outage %d: duration %d ticks, want >= 1", i, o.Ticks)
		}
		if o.LaneFrac <= 0 || o.LaneFrac > 1 {
			return fmt.Errorf("fault outage %d: lane fraction %v outside (0, 1]", i, o.LaneFrac)
		}
		if o.Start < end {
			return fmt.Errorf("fault outage %d: starts at tick %d inside the previous window (ends %d); outages must be ascending and non-overlapping", i, o.Start, end)
		}
		end = o.Start + o.Ticks
	}
	prev := -1
	for i, rt := range f.Restarts {
		if rt < 0 || rt >= ticks {
			return fmt.Errorf("fault restart %d: tick %d outside run of %d ticks", i, rt, ticks)
		}
		if rt <= prev {
			return fmt.Errorf("fault restart %d: tick %d not strictly ascending", i, rt)
		}
		prev = rt
	}
	return nil
}

// DegradationStats is the E22 dataset: the run's per-tick legitimate
// allocation time series, the flow-disruption count, and how many fault
// transitions applied. Entirely zero (Enabled false) unless the config
// schedules faults.
type DegradationStats struct {
	// Enabled mirrors Config.Faults.Enabled(); when false every other
	// field is exactly zero.
	Enabled bool
	// Attempts[t] / Failures[t] count legitimate allocation attempts
	// (new flows plus refresh-fallback re-establishments) and refusals
	// at tick t, summed over realms — the degradation-and-recovery
	// curve's raw series.
	Attempts, Failures []uint64
	// Disrupted counts live mappings torn down by fault transitions:
	// dropped with their lane, lost to an engine restart, or re-homed
	// when their owner's failover pin moved.
	Disrupted uint64
	// FaultEvents counts applied fault transitions (lane-down, lane-up,
	// restart) summed over realms.
	FaultEvents int
}

// FailRate returns Failures[t] over Attempts[t] (0 when idle).
func (d DegradationStats) FailRate(t int) float64 {
	if t < 0 || t >= len(d.Attempts) || d.Attempts[t] == 0 {
		return 0
	}
	return float64(d.Failures[t]) / float64(d.Attempts[t])
}

// faultMix is the schedule's hash finalizer (SplitMix64's, like
// fastrand.Rand's output stage): victim ranking must be a pure function of
// seed, realm and lane, independent of every execution parameter.
func faultMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// faultSalt derives the per-realm schedule salt from the run seed.
func faultSalt(seed int64, realmIdx int) uint64 {
	return faultMix(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(realmIdx+1)*0xD1B54A32D192ED03)
}

// victims picks the outage's lane set: the top ceil(LaneFrac·lanes)
// lanes ranked by a salted hash — deterministic, spread across the pool
// rather than always the low lane indexes — clamped so at least one
// lane survives. Returned ascending.
func (o Outage) victims(lanes int, salt uint64) []int {
	if lanes <= 1 {
		return nil
	}
	k := int(math.Ceil(o.LaneFrac * float64(lanes)))
	if k > lanes-1 {
		k = lanes - 1
	}
	if k < 1 {
		k = 1
	}
	type scored struct {
		score uint64
		lane  int
	}
	sc := make([]scored, lanes)
	for l := range sc {
		sc[l] = scored{faultMix(salt ^ uint64(l+1)*0x9E3779B97F4A7C15), l}
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].score != sc[j].score {
			return sc[i].score > sc[j].score
		}
		return sc[i].lane < sc[j].lane
	})
	v := make([]int, k)
	for i := 0; i < k; i++ {
		v[i] = sc[i].lane
	}
	sort.Ints(v)
	return v
}

// faultBoundary is the set of fault transitions applied before one tick
// runs, in the documented order: restorations, then new outages, then
// the restart, then the re-pin/repartition pass.
type faultBoundary struct {
	tick       int
	ups, downs []int
	restart    bool
}

// boundaries compiles the plan into per-tick transitions for a pool of
// the given lane count, ascending by tick. A restoration landing past
// the horizon is simply never reached.
func (f FaultPlan) boundaries(lanes int, salt uint64) []faultBoundary {
	b := make(map[int]*faultBoundary)
	at := func(t int) *faultBoundary {
		fb := b[t]
		if fb == nil {
			fb = &faultBoundary{tick: t}
			b[t] = fb
		}
		return fb
	}
	for oi, o := range f.Outages {
		v := o.victims(lanes, salt^faultMix(uint64(oi+1)*0xBF58476D1CE4E5B9))
		if len(v) == 0 {
			continue
		}
		at(o.Start).downs = append(at(o.Start).downs, v...)
		at(o.Start + o.Ticks).ups = append(at(o.Start+o.Ticks).ups, v...)
	}
	for _, rt := range f.Restarts {
		at(rt).restart = true
	}
	out := make([]faultBoundary, 0, len(b))
	for _, fb := range b {
		out = append(out, *fb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].tick < out[j].tick })
	return out
}
