package report

import (
	"fmt"
	"strings"

	"cgn/internal/fleet"
	"cgn/internal/internet"
	"cgn/internal/traffic"
)

// ObservationRun is the E21 dataset: a longitudinal fleet run over the
// world's carrier NATs — plus latent carriers that may deploy CGN
// mid-run — scored by a windowed observer at several observation
// durations.
type ObservationRun struct {
	Res *fleet.Result
	// CGNCarriers / LatentCarriers split the fleet: replicas of the
	// world's deployed CGNs (enabled at day zero) and carriers without,
	// most of which the scripted timeline enables mid-run.
	CGNCarriers    int
	LatentCarriers int
	Obs            fleet.ObservationConfig
	Err            error
}

// Enabled reports whether the experiment ran.
func (o *ObservationRun) Enabled() bool { return o.Res != nil && o.Res.Days > 0 }

// AnalyzeObservation runs the E21 longitudinal fleet simulation: every
// deployed carrier NAT of the world is replayed (configuration and
// device seed, capped population) as a day-zero CGN carrier, joined by
// latent carriers without CGN; a deterministic scripted timeline then
// evolves the fleet — late-onset enables, disables, pool
// re-provisionings, growth, churn — over the scenario's observation
// horizon, and the fleet's windowed observer scores detection
// precision/recall per observation duration. Like E18 this is a pure
// stage-parallel function of the world: fresh engines, campaign state
// untouched. workers sizes the fleet's realm pool and never affects
// results.
func AnalyzeObservation(w *internet.World, workers int) *ObservationRun {
	spec := w.Scenario.Observation
	if !spec.Enabled() {
		return &ObservationRun{}
	}
	subCap := spec.SubscribersPerRealm
	if subCap == 0 {
		subCap = 16
	}
	var carriers []fleet.CarrierSpec
	for _, d := range w.CGNs {
		subs := d.Dev.NAT.PortStats().Subscribers
		if subs > subCap {
			subs = subCap
		}
		if subs < 4 {
			subs = 4
		}
		carriers = append(carriers, fleet.CarrierSpec{
			ID:          fmt.Sprintf("AS%d/%d", d.ASN, d.Realm),
			Cellular:    d.Cellular,
			NAT:         d.Dev.NAT.Config(),
			Subscribers: subs,
			CGNEnabled:  true,
		})
	}
	nCGN := len(carriers)
	seed := w.Scenario.Seed ^ 0x0E21_0B5E_12F1
	latent := spec.LatentCarriers
	if latent == 0 {
		latent = nCGN/2 + 4
	}
	// Latent carriers get synthetic NAT templates — they have no device
	// in the world; the template only matters once the timeline enables
	// them.
	for i, s := range fleet.SyntheticFleet(seed, latent, subCap) {
		s.ID = fmt.Sprintf("latent%02d", i)
		s.CGNEnabled = false
		carriers = append(carriers, s)
	}
	dayTicks := spec.DayTicks
	if dayTicks == 0 {
		dayTicks = 48
	}
	cfg := fleet.Config{
		Seed:     seed,
		Days:     spec.Days,
		Profile:  traffic.Profile{DayTicks: dayTicks},
		Carriers: carriers,
		Timeline: fleet.ScriptTimeline(seed, carriers, spec.Days),
		Obs:      spec.ObservationConfig,
		Workers:  workers,
	}
	res, err := fleet.Run(cfg)
	return &ObservationRun{
		Res:            res,
		CGNCarriers:    nCGN,
		LatentCarriers: latent,
		Obs:            cfg.Obs.WithDefaults(),
		Err:            err,
	}
}

// ObservePressure is the scalar E21 summary the sweep aggregation
// carries per world: detection quality at the shortest and longest
// scored windows.
type ObservePressure struct {
	Enabled                 bool
	ShortWindow, LongWindow int
	ShortRecall, LongRecall float64
	ShortPrec, LongPrec     float64
}

// Pressure folds the fleet result into the sweep summary.
func (o *ObservationRun) Pressure() ObservePressure {
	if !o.Enabled() || len(o.Res.Windows) == 0 {
		return ObservePressure{}
	}
	first, last := o.Res.Windows[0], o.Res.Windows[len(o.Res.Windows)-1]
	return ObservePressure{
		Enabled:     true,
		ShortWindow: first.Days, LongWindow: last.Days,
		ShortRecall: first.Recall, LongRecall: last.Recall,
		ShortPrec: first.Precision, LongPrec: last.Precision,
	}
}

// E21 renders detection precision/recall as a function of observation
// duration: the evolving-fleet run's shape, the per-window confusion
// table, and the longitudinal finding — recall grows with watching
// time, because late-onset deployments and sparsely sampled vantage
// points only accumulate evidence over weeks.
func (b *Bundle) E21() string {
	o := b.Observe
	var sb strings.Builder
	sb.WriteString("E21 — detection precision/recall vs observation duration\n")
	if o.Err != nil {
		sb.WriteString(fmt.Sprintf("  (fleet run failed: %v)\n", o.Err))
		return sb.String()
	}
	if !o.Enabled() {
		sb.WriteString("  (longitudinal observation disabled: Scenario.Observation.Days = 0)\n")
		return sb.String()
	}
	r := o.Res
	sb.WriteString(fmt.Sprintf("  fleet: %d carriers (%d CGN at day 0, %d latent), %d virtual days, %d timeline events applied\n",
		r.Carriers, o.CGNCarriers, o.LatentCarriers, r.Days, r.EventsApplied))
	sb.WriteString(fmt.Sprintf("  flows: %d mappings created, %d expired, %d refreshes, %d allocation failures; %d subscribers at end\n",
		r.Created, r.Expired, r.Refreshes, r.Failures, r.SubscribersEnd))
	sb.WriteString(fmt.Sprintf("  observer: vantage hit %.0f%%/day on active CGN, noise %.1f%%/day; declare CGN at >= max(1, W/%d) positive days in the last W\n",
		100*o.Obs.VantageProb, 100*o.Obs.NoiseProb, o.Obs.ThresholdPer))
	sb.WriteString("  window  threshold    tp    fp    fn    tn  precision  recall     f1\n")
	for _, w := range r.Windows {
		sb.WriteString(fmt.Sprintf("  %4dd  %9d  %4d  %4d  %4d  %4d      %.3f   %.3f  %.3f\n",
			w.Days, w.Threshold, w.TP, w.FP, w.FN, w.TN, w.Precision, w.Recall, w.F1))
	}
	if n := len(r.Windows); n > 0 {
		first, last := r.Windows[0], r.Windows[n-1]
		sb.WriteString(fmt.Sprintf("  finding: recall %.3f after %d day(s) -> %.3f after %d days (precision %.3f -> %.3f)\n",
			first.Recall, first.Days, last.Recall, last.Days, first.Precision, last.Precision))
		sb.WriteString("  a snapshot misses late-onset and sparsely-sampled deployments that weeks of watching accumulate\n")
	}
	return sb.String()
}
