package report

import (
	"fmt"
	"sort"
	"strings"

	"cgn/internal/internet"
	"cgn/internal/traffic"
)

// TrafficLoad is the E18 dataset: the traffic engine's run over replicas
// of every carrier NAT in the world.
type TrafficLoad struct {
	Res *traffic.Result
}

// AnalyzeTrafficOpts drives the scenario's traffic profile through a
// fresh replica of every carrier NAT (realmSpecs), so the campaign's own
// translation state — which E17 snapshots — is never touched, and the
// analysis stays a pure, stage-parallel function of the world. workers
// is the traffic engine's realm worker-pool size and shards its NAT
// shards per realm; both are pure resource knobs (any value below 1
// means 1), and every combination produces the identical result.
func AnalyzeTrafficOpts(w *internet.World, workers, shards int) *TrafficLoad {
	p := w.Scenario.Traffic
	if !p.Enabled() {
		return &TrafficLoad{Res: &traffic.Result{}}
	}
	res := traffic.Run(traffic.Config{
		Seed:    w.Scenario.Seed ^ 0x7AFF1C0DE,
		Profile: p,
		Realms:  realmSpecs(w),
		Workers: workers,
		Shards:  shards,
	})
	return &TrafficLoad{Res: res}
}

// realmSpecs replays every carrier NAT in the world as a traffic realm:
// the device's configuration, its seed included, so the replica's
// random choices match the deployed device's, and the subscriber
// population the campaign actually exercised (PortStats().Subscribers).
// E18, E19 and E22 all drive this realm set.
func realmSpecs(w *internet.World) []traffic.RealmSpec {
	specs := make([]traffic.RealmSpec, 0, len(w.CGNs))
	for _, d := range w.CGNs {
		specs = append(specs, traffic.RealmSpec{
			ID:          fmt.Sprintf("AS%d/%d", d.ASN, d.Realm),
			Cellular:    d.Cellular,
			NAT:         d.Dev.NAT.Config(),
			Subscribers: d.Dev.NAT.PortStats().Subscribers,
		})
	}
	return specs
}

// drivenRealms counts the realms traffic.Run actually drives: it skips
// realms without subscribers.
func drivenRealms(specs []traffic.RealmSpec) int {
	n := 0
	for _, s := range specs {
		if s.Subscribers > 0 {
			n++
		}
	}
	return n
}

// TrafficPressure is the scalar E18 summary sweep aggregation carries
// per world.
type TrafficPressure struct {
	Enabled bool
	// MedianPorts / P99Ports / MaxPorts summarize per-subscriber
	// concurrent port usage over every (subscriber, tick) sample.
	MedianPorts, P99Ports, MaxPorts int
	// PeakUtilization is the highest mean-across-realms instantaneous
	// port-space utilization of the run.
	PeakUtilization float64
	// FailureRate is allocation failures over allocation attempts.
	FailureRate float64
}

// Pressure folds the engine result into the sweep summary.
func (tl *TrafficLoad) Pressure() TrafficPressure {
	r := tl.Res
	if !r.Enabled() {
		return TrafficPressure{}
	}
	tp := TrafficPressure{
		Enabled:         true,
		MedianPorts:     r.All.Median,
		P99Ports:        r.All.P99,
		MaxPorts:        r.All.Max,
		PeakUtilization: r.PeakUtil,
	}
	if total := r.Created + r.Failures; total > 0 {
		tp.FailureRate = float64(r.Failures) / float64(total)
	}
	return tp
}

// utilRamp maps a share of the run's peak utilization to a density glyph
// for the time-series sparkline.
func utilRamp(v, peak float64) byte {
	if peak <= 0 {
		return ' '
	}
	i := int(v / peak * 8)
	if i > 8 {
		i = 8
	}
	if i < 0 {
		i = 0
	}
	return " .:-=+*#@"[i]
}

// E18 renders the temporal port-usage analysis: per-subscriber
// concurrent ports per rate class over the simulated span, the
// Figure 8 ordering line (max ≫ p99 ≫ median), the diurnal realm
// utilization series and the busiest realms.
func (b *Bundle) E18() string {
	r := b.Traffic.Res
	var sb strings.Builder
	sb.WriteString("E18 / Figure 8 — per-subscriber concurrent ports over simulated time\n")
	if !r.Enabled() {
		sb.WriteString("  (traffic engine disabled: Scenario.Traffic.Ticks = 0, or no loaded CGN realms)\n")
		return sb.String()
	}
	p := r.Profile
	sb.WriteString(fmt.Sprintf("  engine: %d ticks x %v (%.1f diurnal periods of %d ticks), %d realms, %d subscribers\n",
		p.Ticks, p.TickStep, p.Days(), p.DayTicks, len(r.Realms), r.Subscribers))
	sb.WriteString(fmt.Sprintf("  flows: %d mappings created, %d expired, %d refreshes, %d allocation failures\n",
		r.Created, r.Expired, r.Refreshes, r.Failures))

	sb.WriteString("  concurrent ports per subscriber (all (subscriber, tick) samples):\n")
	sb.WriteString("  class   subscribers  median  p99  max\n")
	for _, cs := range r.ByClass {
		sb.WriteString(fmt.Sprintf("  %-7s %11d  %6d  %3d  %3d\n",
			cs.Class, cs.Subscribers, cs.Median, cs.P99, cs.Max))
	}
	sb.WriteString(fmt.Sprintf("  %-7s %11d  %6d  %3d  %3d\n",
		"all", r.All.Subscribers, r.All.Median, r.All.P99, r.All.Max))
	sb.WriteString(fmt.Sprintf("  ordering: max=%d >> p99=%d >> median=%d (paper Fig 8: peaks far above the median)\n",
		r.All.Max, r.All.P99, r.All.Median))

	// Diurnal utilization sparkline: one row per simulated day, 24
	// columns per row, each column the mean over its slice of the day,
	// scaled to the run's peak.
	sb.WriteString(fmt.Sprintf("  realm utilization over time (mean across realms; peak %.2f%% at tick %d; ramp \" .:-=+*#@\" scaled to peak):\n",
		100*r.PeakUtil, r.PeakTick))
	days := (p.Ticks + p.DayTicks - 1) / p.DayTicks
	// One glyph per day slice, at most 24; a short diurnal period gets one
	// column per tick so no slice is ever empty.
	cols := 24
	if p.DayTicks < cols {
		cols = p.DayTicks
	}
	for d := 0; d < days; d++ {
		row := make([]byte, 0, cols)
		for c := 0; c < cols; c++ {
			lo := d*p.DayTicks + c*p.DayTicks/cols
			hi := d*p.DayTicks + (c+1)*p.DayTicks/cols
			if lo >= p.Ticks {
				break
			}
			if hi > p.Ticks {
				hi = p.Ticks
			}
			sum := 0.0
			for t := lo; t < hi; t++ {
				sum += r.MeanUtil[t]
			}
			row = append(row, utilRamp(sum/float64(hi-lo), r.PeakUtil))
		}
		sb.WriteString(fmt.Sprintf("  day %d |%s|\n", d+1, row))
	}

	// The busiest realms, by peak utilization then failures.
	busiest := make([]traffic.RealmStat, len(r.Realms))
	copy(busiest, r.Realms)
	sort.SliceStable(busiest, func(i, j int) bool {
		if busiest[i].PeakUtil != busiest[j].PeakUtil {
			return busiest[i].PeakUtil > busiest[j].PeakUtil
		}
		return busiest[i].Failures > busiest[j].Failures
	})
	for i, rs := range busiest {
		if i == 3 {
			break
		}
		kind := "eyeball"
		if rs.Cellular {
			kind = "cellular"
		}
		sb.WriteString(fmt.Sprintf("  busiest: %s (%s): %d subscribers, peak util %.2f%%, %d created, %d expired, %d failures\n",
			rs.ID, kind, rs.Subscribers, 100*rs.PeakUtil, rs.Created, rs.Expired, rs.Failures))
	}
	return sb.String()
}
