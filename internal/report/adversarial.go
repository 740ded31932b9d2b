package report

import (
	"fmt"
	"strings"

	"cgn/internal/internet"
	"cgn/internal/nat"
	"cgn/internal/traffic"
)

// AdversarialRun is the E19 dataset: the attack × defense matrix. Every
// cell replays the same carrier-NAT replica set and the same adversarial
// traffic profile, varying only the defense configuration, so the
// columns are directly comparable: what the undefended flood costs
// legitimate subscribers, and how much of it each defense claws back.
type AdversarialRun struct {
	Enabled bool
	// Profile echoes the adversarial profile (defaults applied).
	Profile traffic.Profile
	// Realms counts the replayed carrier realms the engine drove (those
	// with subscribers); Rate/Burst the token bucket the defended cells
	// arm.
	Realms int
	Rate   float64
	Burst  int
	Cells  []AdversarialCell
}

// AdversarialCell is one (attack, defense) matrix cell.
type AdversarialCell struct {
	// Name labels the cell; Attack is false only for the no-adversary
	// baseline row, RateLimit / Evict mark the armed defenses.
	Name      string
	Attack    bool
	RateLimit bool
	Evict     bool
	// LegitFailRate is the legitimate allocation-failure rate: refused
	// new-flow attempts over offered ones. The baseline row computes it
	// over all flows (with no adversaries every flow is legitimate);
	// attack rows use the engine's per-side books.
	LegitFailRate float64
	// AttackerFailRate is the flood's failure rate — a working defense
	// pushes this up while LegitFailRate comes back down.
	AttackerFailRate float64
	// LegitP99 / AttackerP99 split the per-subscriber concurrent-port
	// p99 by side; attacker inflation over the legit column is the
	// occupancy the flood holds hostage.
	LegitP99, AttackerP99 int
	// Adv is the cell's full adversarial dataset (zero on the baseline
	// row, whose run has no adversaries).
	Adv traffic.AdversarialStats
}

// AnalyzeAdversarial runs the E19 attack × defense matrix over replicas
// of every carrier NAT, exactly like E18's replay (same population, a
// distinct seed stream). It only runs when the scenario's traffic
// profile offers adversarial load; otherwise the result is disabled and
// every prior experiment is untouched. The defended cells arm the
// scenario's own CGNAllocRatePerSec/CGNAllocBurst when set and a
// documented default otherwise, so an undefended attack scenario still
// yields a full matrix. workers and shards are the traffic engine's
// resource knobs (byte-identical results at any values).
func AnalyzeAdversarial(w *internet.World, workers, shards int) *AdversarialRun {
	p := w.Scenario.Traffic
	if !p.Enabled() || !p.AttacksEnabled() {
		return &AdversarialRun{}
	}
	specs := realmSpecs(w)
	if len(specs) == 0 {
		return &AdversarialRun{}
	}
	rate, burst := w.Scenario.CGNAllocRatePerSec, w.Scenario.CGNAllocBurst
	if rate <= 0 {
		// Matrix default: above a legit median subscriber's ceiling
		// (FlowsPerTick x (1+DiurnalAmp) per tick), far under any flood
		// worth the name.
		rate, burst = 0.06, 8
	}
	run := &AdversarialRun{
		Enabled: true,
		Profile: p.WithDefaults(),
		Realms:  drivenRealms(specs),
		Rate:    rate,
		Burst:   burst,
	}
	baseline := p
	baseline.AttackerFrac = 0
	baseline.AttackerFlowsPerTick = 0
	baseline.ScannerProbesPerTick = 0
	for _, c := range []AdversarialCell{
		{Name: "baseline (no attack)"},
		{Name: "flood undefended", Attack: true},
		{Name: "flood + token-bucket", Attack: true, RateLimit: true},
		{Name: "flood + evict-oldest", Attack: true, Evict: true},
		{Name: "flood + both", Attack: true, RateLimit: true, Evict: true},
	} {
		prof := p
		if !c.Attack {
			prof = baseline
		}
		cellSpecs := make([]traffic.RealmSpec, len(specs))
		copy(cellSpecs, specs)
		for i := range cellSpecs {
			cfg := cellSpecs[i].NAT
			cfg.AllocRatePerSec, cfg.AllocBurst = 0, 0
			cfg.Eviction = nat.EvictNone
			if c.RateLimit {
				cfg.AllocRatePerSec, cfg.AllocBurst = rate, burst
			}
			if c.Evict {
				cfg.Eviction = nat.EvictOldestIdle
			}
			cellSpecs[i].NAT = cfg
		}
		res := traffic.Run(traffic.Config{
			Seed:    w.Scenario.Seed ^ 0x0E19_5EED,
			Profile: prof,
			Realms:  cellSpecs,
			Workers: workers,
			Shards:  shards,
		})
		c.LegitP99 = res.All.P99
		if c.Attack {
			c.Adv = res.Adversarial
			c.LegitFailRate = res.Adversarial.LegitFailRate()
			c.AttackerFailRate = res.Adversarial.AttackerFailRate()
			c.AttackerP99 = res.Adversarial.AttackerPorts.P99
		} else if total := res.Created + res.Failures; total > 0 {
			c.LegitFailRate = float64(res.Failures) / float64(total)
		}
		run.Cells = append(run.Cells, c)
	}
	return run
}

// Cell returns the named matrix cell, or nil.
func (ar *AdversarialRun) Cell(name string) *AdversarialCell {
	for i := range ar.Cells {
		if ar.Cells[i].Name == name {
			return &ar.Cells[i]
		}
	}
	return nil
}

// AdversarialPressure is the scalar E19 summary sweep aggregation
// carries per world.
type AdversarialPressure struct {
	Enabled bool
	// Attackers is the flooder population of the attack cells.
	Attackers int
	// UndefendedLegitFailRate / DefendedLegitFailRate compare the
	// legitimate failure rate without defenses and with the token
	// bucket armed; BaselineLegitFailRate is the no-adversary floor.
	BaselineLegitFailRate   float64
	UndefendedLegitFailRate float64
	DefendedLegitFailRate   float64
	// RateLimited / Evictions total the defense counters over the
	// defended cells.
	RateLimited, Evictions uint64
}

// Pressure folds the matrix into the sweep summary.
func (ar *AdversarialRun) Pressure() AdversarialPressure {
	if !ar.Enabled {
		return AdversarialPressure{}
	}
	ap := AdversarialPressure{Enabled: true}
	if c := ar.Cell("baseline (no attack)"); c != nil {
		ap.BaselineLegitFailRate = c.LegitFailRate
	}
	if c := ar.Cell("flood undefended"); c != nil {
		ap.UndefendedLegitFailRate = c.LegitFailRate
		ap.Attackers = c.Adv.Attackers
	}
	if c := ar.Cell("flood + token-bucket"); c != nil {
		ap.DefendedLegitFailRate = c.LegitFailRate
	}
	for _, c := range ar.Cells {
		ap.RateLimited += c.Adv.RateLimited
		ap.Evictions += c.Adv.Evictions
	}
	return ap
}

// E19 renders the adversarial matrix: per-cell legitimate and attacker
// failure rates, the p99 concurrent-port split, and the defense
// counters, over the same realms and adversarial load per cell.
func (b *Bundle) E19() string {
	ar := b.Adversarial
	var sb strings.Builder
	sb.WriteString("E19 — adversarial traffic x defense matrix (collateral damage on legitimate subscribers)\n")
	if !ar.Enabled {
		sb.WriteString("  (adversarial engine disabled: Scenario.Traffic has no attacker or scanner load)\n")
		return sb.String()
	}
	p := ar.Profile
	sb.WriteString(fmt.Sprintf("  attack: %.0f%% of subscribers flooding %.1f flows/tick (never refreshed); scanner %.1f probes/IP/tick\n",
		100*p.AttackerFrac, p.AttackerFlowsPerTick, p.ScannerProbesPerTick))
	sb.WriteString(fmt.Sprintf("  defended cells: token bucket %.3f allocs/s (burst %d); eviction evict-oldest-idle; %d realms, %d ticks per cell\n",
		ar.Rate, ar.Burst, ar.Realms, p.Ticks))
	sb.WriteString("  cell                   legit-fail  atk-fail  legit-p99  atk-p99  rate-limited  evicted  quota  noports  scan-blocked\n")
	for _, c := range ar.Cells {
		atkFail, atkP99 := "-", "-"
		if c.Attack {
			atkFail = fmt.Sprintf("%.2f%%", 100*c.AttackerFailRate)
			atkP99 = fmt.Sprintf("%d", c.AttackerP99)
		}
		scanBlocked := "-"
		if c.Adv.ScannerProbes > 0 {
			scanBlocked = fmt.Sprintf("%d/%d", c.Adv.ScannerBlocked, c.Adv.ScannerProbes)
		}
		sb.WriteString(fmt.Sprintf("  %-22s %-11s %-9s %-10d %-8s %-13d %-8d %-6d %-8d %s\n",
			c.Name, fmt.Sprintf("%.2f%%", 100*c.LegitFailRate), atkFail,
			c.LegitP99, atkP99, c.Adv.RateLimited, c.Adv.Evictions,
			c.Adv.QuotaDrops, c.Adv.NoPorts, scanBlocked))
	}
	if u, d := ar.Cell("flood undefended"), ar.Cell("flood + token-bucket"); u != nil && d != nil && u.LegitFailRate > 0 {
		sb.WriteString(fmt.Sprintf("  recovery: token bucket cuts the legit failure rate %.2f%% -> %.2f%% (%.1fx); undefended flood holds legit p99 at %d vs attacker %d\n",
			100*u.LegitFailRate, 100*d.LegitFailRate,
			u.LegitFailRate/maxF(d.LegitFailRate, 1e-9), u.LegitP99, u.AttackerP99))
	}
	return sb.String()
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
