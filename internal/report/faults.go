package report

import (
	"fmt"
	"strings"
	"time"

	"cgn/internal/internet"
	"cgn/internal/traffic"
)

// FaultRun is the E22 dataset: degradation-and-recovery curves under
// scheduled infrastructure faults. Every cell replays the same carrier-
// NAT replica set and the same traffic profile, varying only the fault
// schedule — a severity grid of pool outages (fraction of the pool lost
// × outage duration) plus one whole-engine restart — so the columns
// measure exactly what the fault costs: the legitimate allocation-
// failure rate during the degraded window, the flows disrupted by the
// transitions, and the virtual time until the failure rate returns to
// its pre-fault baseline after restoration.
type FaultRun struct {
	Enabled bool
	// Profile echoes the traffic profile (defaults applied); Realms
	// counts the replayed carrier realms the engine drove (those with
	// subscribers).
	Profile traffic.Profile
	Realms  int
	// Start is the fault onset tick; PortSpan the replay-only port-span
	// narrowing (0 none).
	Start    int
	PortSpan int
	Cells    []FaultCell
}

// FaultCell is one cell of the severity grid (or the baseline /
// restart row).
type FaultCell struct {
	// Name labels the cell; LaneFrac and OutageTicks are zero on the
	// baseline and restart rows, Restart true only on the restart row.
	Name        string
	LaneFrac    float64
	OutageTicks int
	Restart     bool
	// BaselineRate is the legitimate allocation-failure rate before the
	// fault onset; DegradedRate the rate inside the degraded window
	// (the outage, or the restart tick's re-establishment surge). The
	// baseline row reports its whole-run rate under BaselineRate.
	BaselineRate float64
	DegradedRate float64
	// RecoveryTicks is how many ticks after restoration the windowed
	// failure rate needs to return to the recovery threshold
	// (1.5×baseline + 0.5pp); 0 means immediate, -1 means it never
	// recovered within the run.
	RecoveryTicks int
	// Disrupted counts live mappings torn down by fault transitions;
	// FaultEvents the applied transitions, both summed over realms.
	Disrupted   uint64
	FaultEvents int
	// Deg is the cell's full per-tick degradation series (zero on the
	// baseline row, whose run schedules no faults).
	Deg traffic.DegradationStats
}

// recoveryThreshold is the steady-state bar: recovered means the
// windowed failure rate is back within 1.5× the pre-fault baseline
// plus half a percentage point of slack for idle-tick noise.
func recoveryThreshold(baseline float64) float64 { return baseline*1.5 + 0.005 }

// rateOver returns failures over attempts across ticks [lo, hi).
func rateOver(d traffic.DegradationStats, lo, hi int) float64 {
	var att, fail uint64
	for t := lo; t < hi && t < len(d.Attempts); t++ {
		att += d.Attempts[t]
		fail += d.Failures[t]
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

// recoveryTicks scans forward from the restoration tick for the first
// tick whose trailing window of win ticks is back under the threshold,
// and returns the distance in ticks (-1 if the run ends first).
func recoveryTicks(d traffic.DegradationStats, restore, win, ticks int, threshold float64) int {
	for t := restore; t+win <= ticks; t++ {
		if rateOver(d, t, t+win) <= threshold {
			return t - restore
		}
	}
	return -1
}

// AnalyzeFaults runs the E22 fault-injection replay over replicas of
// every carrier NAT, exactly like E18's replay (same population, a
// distinct seed stream). It only runs when the scenario schedules
// faults and offers traffic; otherwise the result is disabled and every
// prior experiment is untouched. workers and shards are the traffic
// engine's resource knobs (byte-identical results at any values).
func AnalyzeFaults(w *internet.World, workers, shards int) *FaultRun {
	p := w.Scenario.Traffic
	spec := w.Scenario.Faults
	if !p.Enabled() || !spec.Enabled() {
		return &FaultRun{}
	}
	specs := realmSpecs(w)
	if span := spec.PortSpan; span > 0 {
		for i := range specs {
			cfg := &specs[i].NAT
			cfg.PortLo = 1024
			cfg.PortHi = uint16(1024 + span - 1)
			// Same guard as world generation: a chunk wider than half the
			// narrowed span leaves no aligned chunk inside the range.
			for cfg.ChunkSize > span/2 && cfg.ChunkSize > 1 {
				cfg.ChunkSize /= 2
			}
		}
	}
	if len(specs) == 0 {
		return &FaultRun{}
	}
	pd := p.WithDefaults()
	startFrac := spec.StartFrac
	if startFrac == 0 {
		startFrac = 0.25
	}
	start := int(startFrac * float64(pd.Ticks))
	run := &FaultRun{
		Enabled:  true,
		Profile:  pd,
		Realms:   drivenRealms(specs),
		Start:    start,
		PortSpan: spec.PortSpan,
	}

	type plan struct {
		name        string
		laneFrac    float64
		outageTicks int
		restart     bool
		faults      traffic.FaultPlan
	}
	plans := []plan{{name: "baseline (no faults)"}}
	for _, lf := range spec.LaneFracs {
		for _, of := range spec.OutageFracs {
			dur := int(of * float64(pd.Ticks))
			if dur < 1 {
				dur = 1
			}
			plans = append(plans, plan{
				name:        fmt.Sprintf("outage %.0f%% pool x %dt", 100*lf, dur),
				laneFrac:    lf,
				outageTicks: dur,
				faults: traffic.FaultPlan{
					Outages: []traffic.Outage{{Start: start, Ticks: dur, LaneFrac: lf}},
				},
			})
		}
	}
	if spec.Restart {
		plans = append(plans, plan{
			name:    "engine restart (reboot)",
			restart: true,
			faults:  traffic.FaultPlan{Restarts: []int{start}},
		})
	}

	// The recovery window: long enough to smooth single-tick noise,
	// short against the diurnal period so it cannot hide a slow return.
	win := pd.DayTicks / 48
	if win < 1 {
		win = 1
	}
	for _, pl := range plans {
		res := traffic.Run(traffic.Config{
			Seed:    w.Scenario.Seed ^ 0x0E22_5EED,
			Profile: p,
			Realms:  specs,
			Workers: workers,
			Shards:  shards,
			Faults:  pl.faults,
		})
		c := FaultCell{
			Name:        pl.name,
			LaneFrac:    pl.laneFrac,
			OutageTicks: pl.outageTicks,
			Restart:     pl.restart,
		}
		if !pl.faults.Enabled() {
			// The baseline row has no per-tick series; its whole-run rate
			// is the reference the fault rows' pre-onset rates should sit
			// near.
			if total := res.Created + res.Failures; total > 0 {
				c.BaselineRate = float64(res.Failures) / float64(total)
			}
		} else {
			d := res.Degradation
			c.Deg = d
			c.Disrupted = d.Disrupted
			c.FaultEvents = d.FaultEvents
			c.BaselineRate = rateOver(d, 0, start)
			restore := start + pl.outageTicks
			if pl.restart {
				// The restart's degraded window is the re-establishment
				// surge right after the reboot; recovery is measured from
				// the reboot tick itself.
				restore = start
				c.DegradedRate = rateOver(d, start, start+win)
			} else {
				c.DegradedRate = rateOver(d, start, restore)
			}
			c.RecoveryTicks = recoveryTicks(d, restore, win, pd.Ticks, recoveryThreshold(c.BaselineRate))
		}
		run.Cells = append(run.Cells, c)
	}
	return run
}

// Cell returns the named grid cell, nil when absent.
func (fr *FaultRun) Cell(name string) *FaultCell {
	for i := range fr.Cells {
		if fr.Cells[i].Name == name {
			return &fr.Cells[i]
		}
	}
	return nil
}

// Harshest returns the most severe outage cell (the grid ascends, so
// the last non-restart fault row), or nil when disabled.
func (fr *FaultRun) Harshest() *FaultCell {
	var h *FaultCell
	for i := range fr.Cells {
		if c := &fr.Cells[i]; c.OutageTicks > 0 {
			h = c
		}
	}
	return h
}

// FaultPressure is the scalar E22 summary sweep aggregation carries per
// world, taken from the harshest outage cell.
type FaultPressure struct {
	Enabled bool
	// BaselineFailRate / OutageFailRate bracket the degradation: the
	// legitimate allocation-failure rate before the fault and inside
	// the outage window.
	BaselineFailRate float64
	OutageFailRate   float64
	// RecoveryTicks is the return-to-baseline time after restoration
	// (-1: never within the run); Disrupted totals torn-down mappings
	// over every fault cell.
	RecoveryTicks int
	Disrupted     uint64
}

// Pressure folds the run into the sweep summary.
func (fr *FaultRun) Pressure() FaultPressure {
	h := fr.Harshest()
	if !fr.Enabled || h == nil {
		return FaultPressure{}
	}
	fp := FaultPressure{
		Enabled:          true,
		BaselineFailRate: h.BaselineRate,
		OutageFailRate:   h.DegradedRate,
		RecoveryTicks:    h.RecoveryTicks,
	}
	for _, c := range fr.Cells {
		fp.Disrupted += c.Disrupted
	}
	return fp
}

// E22 renders the fault-injection analysis: the severity grid's
// degradation rows (failure rate before, during and after each fault),
// the disruption counts, and the harshest cell's per-tick failure-rate
// curve showing degradation and monotone recovery.
func (b *Bundle) E22() string {
	fr := b.Faults
	var sb strings.Builder
	sb.WriteString("E22 — fault injection: pool outages, engine restarts, degradation and recovery\n")
	if !fr.Enabled {
		sb.WriteString("  (fault engine disabled: Scenario.Faults schedules nothing, or no traffic profile)\n")
		return sb.String()
	}
	p := fr.Profile
	span := "each realm's own port span"
	if fr.PortSpan > 0 {
		span = fmt.Sprintf("replay port span narrowed to %d", fr.PortSpan)
	}
	sb.WriteString(fmt.Sprintf("  faults: onset tick %d of %d (x %v); %d realms; %s\n",
		fr.Start, p.Ticks, p.TickStep, fr.Realms, span))
	sb.WriteString("  cell                      lanes-lost  outage  fail-rate pre  during  recovery      disrupted  events\n")
	for _, c := range fr.Cells {
		lanes, outage, during, rec, disr, ev := "-", "-", "-", "-", "-", "-"
		if c.OutageTicks > 0 || c.Restart {
			if c.OutageTicks > 0 {
				lanes = fmt.Sprintf("%.0f%%", 100*c.LaneFrac)
				outage = fmt.Sprintf("%dt", c.OutageTicks)
			} else {
				lanes = "state"
			}
			during = fmt.Sprintf("%.2f%%", 100*c.DegradedRate)
			switch {
			case c.RecoveryTicks < 0:
				rec = "never"
			case c.RecoveryTicks == 0:
				rec = "immediate"
			default:
				rec = fmt.Sprintf("%dt (%v)", c.RecoveryTicks, virtualTime(c.RecoveryTicks, p))
			}
			disr = fmt.Sprintf("%d", c.Disrupted)
			ev = fmt.Sprintf("%d", c.FaultEvents)
		}
		sb.WriteString(fmt.Sprintf("  %-25s %-11s %-7s %-14s %-7s %-13s %-10s %s\n",
			c.Name, lanes, outage, fmt.Sprintf("%.2f%%", 100*c.BaselineRate), during, rec, disr, ev))
	}

	// The harshest cell's failure-rate curve: one glyph per slice of the
	// run, scaled to the curve's peak, with the outage window marked.
	if h := fr.Harshest(); h != nil && len(h.Deg.Attempts) > 0 {
		cols := 48
		if p.Ticks < cols {
			cols = p.Ticks
		}
		peak := 0.0
		for t := 0; t < p.Ticks; t++ {
			if r := h.Deg.FailRate(t); r > peak {
				peak = r
			}
		}
		row := make([]byte, 0, cols)
		for c := 0; c < cols; c++ {
			lo, hi := c*p.Ticks/cols, (c+1)*p.Ticks/cols
			if hi <= lo {
				hi = lo + 1
			}
			row = append(row, utilRamp(rateOver(h.Deg, lo, hi), peak))
		}
		restore := fr.Start + h.OutageTicks
		sb.WriteString(fmt.Sprintf("  failure rate over time, harshest cell (%s; peak %.2f%%; ramp \" .:-=+*#@\" scaled to peak):\n",
			h.Name, 100*peak))
		sb.WriteString(fmt.Sprintf("  |%s|\n", row))
		sb.WriteString(fmt.Sprintf("  outage window ticks [%d, %d); recovery threshold %.2f%% (1.5x baseline + 0.5pp)\n",
			fr.Start, restore, 100*recoveryThreshold(h.BaselineRate)))
		switch {
		case h.RecoveryTicks < 0:
			sb.WriteString("  recovery: failure rate never returned to baseline within the run\n")
		default:
			sb.WriteString(fmt.Sprintf("  recovery: degraded %.2f%% -> back under threshold %dt (%v) after lane restoration; post-recovery rate %.2f%%\n",
				100*h.DegradedRate, h.RecoveryTicks, virtualTime(h.RecoveryTicks, p),
				100*rateOver(h.Deg, restore+h.RecoveryTicks, p.Ticks)))
		}
	}
	return sb.String()
}

// virtualTime converts a tick count to virtual time under the profile.
func virtualTime(ticks int, p traffic.Profile) time.Duration {
	return time.Duration(ticks) * p.TickStep
}
