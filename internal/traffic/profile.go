// Package traffic is the time-driven subscriber load engine: a
// deterministic discrete-event simulation that drives per-subscriber
// flow arrivals through the NAT engine over simulated days. Every world
// the generator builds is a snapshot — mappings are created once and
// port pressure is measured at a single instant — but the paper's §6.2
// analysis is temporal: per-subscriber concurrent port usage sampled
// over a week of flow data (Figure 8), with peaks far above the median.
// This package opens that axis.
//
// Each subscriber draws a flow-rate class (light / median / heavy-hitter)
// whose arrival rate is modulated by a diurnal curve; flows open NAT
// mappings, refresh them every tick while they live (through the NAT's
// O(1) mapping-handle fast path), and then idle out through the expiry
// schedule as the virtual clock advances in fixed ticks. The engine
// follows the simnet clock discipline — virtual time only, advanced tick
// by tick, never read from the wall clock — so a (seed, profile, realm
// set) triple always produces the identical Result, whatever machine or
// goroutine runs it.
//
// One realm is one Realm — the realm kernel, which the fleet engine
// (internal/fleet) steps as well — and Run steps one per realm over the
// profile's horizon. The engine scales to million-subscriber
// populations two ways. Realms are embarrassingly parallel: each draws
// from its own seeded RNG stream and accumulates into private
// histograms, utilization series and counters, which Run merges in
// realm input order — reproducing the sequential accumulation order
// exactly, float additions included — so Result is byte-identical at
// any Config.Workers value. And the kernel's hot loop is
// allocation-lean: each lane keeps its flows in one subscriber-ordered
// slice that a tick compacts and merges in place, per-subscriber
// concurrent-port counts are the NAT lanes' own session counts, which
// the kernel follows through each lane's session hook rather than
// recounting per tick, and steady-state ticks allocate nothing.
package traffic

import (
	"fmt"
	"time"
)

// Profile parameterizes the load the engine offers. The zero value
// disables the engine (Ticks == 0); a scenario that wants temporal
// analysis sets Ticks and inherits defaults for everything it leaves
// zero.
type Profile struct {
	// Ticks is the total simulated tick count; 0 disables the engine.
	Ticks int
	// DayTicks is the diurnal period in ticks. The generated worlds are
	// ~3 orders of magnitude smaller than the Internet and their time
	// scale compresses the same way: a "day" of DayTicks ticks at
	// TickStep each is a few simulated hours, which keeps the 10–300 s
	// mapping timeouts churning within a day exactly as real timeouts
	// churn within a real one. Defaults to 288.
	DayTicks int
	// TickStep is the virtual time each tick advances. Defaults to 30 s
	// — under most CGN idle timeouts, so per-tick refreshes genuinely
	// keep mappings alive rather than recreating them.
	TickStep time.Duration
	// DiurnalAmp in [0,1] scales the day curve: arrival rates swing
	// between (1-Amp) at the daily trough and (1+Amp) at the peak.
	DiurnalAmp float64
	// HeavyFrac and LightFrac split subscribers into rate classes:
	// HeavyFrac are heavy hitters, LightFrac are light, the rest run the
	// median rate. HeavyFrac + LightFrac must not exceed 1.
	HeavyFrac float64
	LightFrac float64
	// FlowsPerTick is the mean new-flow arrival rate per tick for a
	// median subscriber at diurnal factor 1. Defaults to 0.6.
	FlowsPerTick float64
	// HeavyMult multiplies the median rate for heavy hitters (light
	// subscribers run at a fixed fifth of the median). Defaults to 10 —
	// the Figure 8 separation of max ≫ 99th percentile ≫ median comes
	// from this tail. Values below 1 are rejected: a "heavy" class
	// slower than the median inverts every percentile the analysis
	// reports.
	HeavyMult float64
	// FlowHoldTicks is the mean flow lifetime in ticks; lifetimes are
	// drawn uniformly from [1, 2·FlowHoldTicks−1], so no flow outlives
	// twice the mean. While a flow lives it refreshes its mapping every
	// tick; afterwards the mapping idles out via the NAT's timeout.
	// Defaults to 3.
	FlowHoldTicks int

	// AttackerFrac in [0,1] turns the leading fraction of each realm's
	// subscribers into malicious port-allocation flooders (the ReDAN
	// mapping-table exhaustion attack): designation is by subscriber
	// index, so it perturbs no random draw, and at 0 the engine is
	// byte-identical to a profile without the field. Attackers replace
	// their legitimate traffic with flood flows and are excluded from
	// the legitimate class statistics; their collateral damage on the
	// rest of the population is what Result.Adversarial measures.
	AttackerFrac float64
	// AttackerFlowsPerTick is the mean flood flows one attacker opens
	// per tick — each on a fresh source port, so each demands a fresh
	// external port, and none is ever refreshed (the flood sustains
	// occupancy by rate x timeout, like the real attack). Not diurnally
	// modulated: bots do not sleep. Defaults to 40 when AttackerFrac is
	// set.
	AttackerFlowsPerTick float64
	// ScannerProbesPerTick is the mean inbound probes per external pool
	// IP per tick from an external scanner sweeping the NAT's port
	// range — the inbound-filtering tickle. 0 disables the scanner.
	ScannerProbesPerTick float64
}

// AttacksEnabled reports whether the profile offers any adversarial
// load (flooders or scanners).
func (p Profile) AttacksEnabled() bool {
	return (p.AttackerFrac > 0 && p.AttackerFlowsPerTick > 0) || p.ScannerProbesPerTick > 0
}

// Enabled reports whether the profile asks for any simulated time.
func (p Profile) Enabled() bool { return p.Ticks > 0 }

// WithDefaults fills unset fields with the documented defaults. A
// disabled profile is returned unchanged.
func (p Profile) WithDefaults() Profile {
	if !p.Enabled() {
		return p
	}
	if p.DayTicks == 0 {
		p.DayTicks = 288
	}
	if p.TickStep == 0 {
		p.TickStep = 30 * time.Second
	}
	if p.FlowsPerTick == 0 {
		p.FlowsPerTick = 0.6
	}
	if p.HeavyMult == 0 {
		p.HeavyMult = 10
	}
	if p.FlowHoldTicks == 0 {
		p.FlowHoldTicks = 3
	}
	if p.AttackerFrac > 0 && p.AttackerFlowsPerTick == 0 {
		p.AttackerFlowsPerTick = 40
	}
	return p
}

// Validate checks the profile's internal consistency. The zero
// (disabled) profile is valid; an enabled one must have sane ticks,
// fractions inside [0,1] and a non-inverted class split.
func (p Profile) Validate() error {
	if p.Ticks < 0 {
		return fmt.Errorf("traffic: negative Ticks %d", p.Ticks)
	}
	if p.DayTicks < 0 {
		return fmt.Errorf("traffic: negative DayTicks %d", p.DayTicks)
	}
	if p.TickStep < 0 {
		return fmt.Errorf("traffic: negative TickStep %v", p.TickStep)
	}
	if p.DiurnalAmp < 0 || p.DiurnalAmp > 1 {
		return fmt.Errorf("traffic: DiurnalAmp = %v outside [0,1]", p.DiurnalAmp)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HeavyFrac", p.HeavyFrac},
		{"LightFrac", p.LightFrac},
		{"AttackerFrac", p.AttackerFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("traffic: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	if s := p.HeavyFrac + p.LightFrac; s > 1 {
		return fmt.Errorf("traffic: class fractions sum to %v > 1", s)
	}
	if p.FlowsPerTick < 0 {
		return fmt.Errorf("traffic: negative FlowsPerTick %v", p.FlowsPerTick)
	}
	if p.HeavyMult < 0 || (p.HeavyMult > 0 && p.HeavyMult < 1) {
		return fmt.Errorf("traffic: HeavyMult = %v, want 0 (default) or >= 1", p.HeavyMult)
	}
	if p.FlowHoldTicks < 0 {
		return fmt.Errorf("traffic: negative FlowHoldTicks %d", p.FlowHoldTicks)
	}
	if p.AttackerFlowsPerTick < 0 {
		return fmt.Errorf("traffic: negative AttackerFlowsPerTick %v", p.AttackerFlowsPerTick)
	}
	if p.ScannerProbesPerTick < 0 {
		return fmt.Errorf("traffic: negative ScannerProbesPerTick %v", p.ScannerProbesPerTick)
	}
	return nil
}

// Days returns the simulated span in diurnal periods.
func (p Profile) Days() float64 {
	d := p.WithDefaults()
	if d.DayTicks == 0 {
		return 0
	}
	return float64(d.Ticks) / float64(d.DayTicks)
}
