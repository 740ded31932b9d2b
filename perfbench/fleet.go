package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cgn/internal/fleet"
	"cgn/internal/traffic"
)

// fleetSize shapes the fleet-quarter workload.
type fleetSize struct{ carriers, subs, dayTicks, days int }

var (
	// The cgnsimd defaults: 8 carriers × 100 subscribers, 288-tick days,
	// a 90-day horizon.
	fleetFull = fleetSize{carriers: 8, subs: 100, dayTicks: 288, days: 90}
	fleetToy  = fleetSize{carriers: 4, subs: 20, dayTicks: 24, days: 6}
)

const (
	// shapeSeed fixes the fleet's carriers, timeline and fault schedule at
	// cgnsimd's default -seed, so every --seed runs the same amount of
	// work; --seed drives the traffic and observation draws.
	shapeSeed     = 1
	faultSeverity = 0.5
	// ringKeep checkpoint generations are kept; the crash drill damages
	// all but the oldest, so resume falls back ringKeep-1 generations.
	ringKeep = 3
)

// fleetWorkload runs the cgnsimd day loop in process: each virtual day
// steps the fleet, renders its Prometheus metrics and saves a checkpoint
// through the retention ring. After the horizon it resumes from an older
// generation, finishes the horizon again and must match the
// uninterrupted run.
func fleetWorkload(procs int, toy bool) *workload {
	sz := fleetFull
	if toy {
		sz = fleetToy
	}
	wl := &workload{name: "fleet-quarter", workers: procs, shards: 1}
	wl.setup = func(seed int64, workdir string) (instance, error) {
		specs := fleet.SyntheticFleet(shapeSeed, sz.carriers, sz.subs)
		timeline := fleet.ScriptTimeline(shapeSeed, specs, sz.days)
		timeline.Events = append(timeline.Events, fleet.ScriptFaults(shapeSeed, specs, sz.days, faultSeverity).Events...)
		cfg := fleet.Config{
			Seed:     seed,
			Days:     sz.days,
			Profile:  traffic.Profile{DayTicks: sz.dayTicks},
			Carriers: specs,
			Timeline: timeline,
			Workers:  wl.workers,
			Shards:   wl.shards,
		}
		sim, err := fleet.New(cfg)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(workdir, "fleet-")
		if err != nil {
			return nil, err
		}
		return &fleetRun{cfg: cfg, sim: sim, dir: dir, path: filepath.Join(dir, "fleet.ckpt")}, nil
	}
	return wl
}

type fleetRun struct {
	cfg       fleet.Config
	sim       *fleet.Sim
	dir, path string
	prom      bytes.Buffer
	days      int

	// The crash drill's measurements, taken in check.
	ckBytes       int64
	load, restore time.Duration
}

func (f *fleetRun) run(tr *tracer) error {
	for !f.sim.Done() {
		day := tr.start("fleet.day", -1)
		tr.do("fleet.step_day", day, f.sim.StepDay)
		tr.do("fleet.metrics_render", day, func() {
			f.prom.Reset()
			fleet.WritePrometheus(&f.prom, f.sim.Metrics())
		})
		var ck *fleet.Checkpoint
		tr.do("fleet.checkpoint_capture", day, func() { ck = f.sim.Checkpoint() })
		var err error
		tr.do("fleet.checkpoint_save", day, func() { err = fleet.SaveCheckpointRing(f.path, ck, ringKeep) })
		tr.end(day, 1)
		if err != nil {
			return fmt.Errorf("checkpoint at day %d: %w", f.sim.Day(), err)
		}
		f.days++
	}
	return nil
}

func (f *fleetRun) work() float64 { return float64(f.days) }

// check digests the uninterrupted run, then plays a crash: the two newest
// ring generations are torn (truncated), LoadCheckpointNewest must fall
// back to the oldest, and the resumed run must finish the horizon with
// the same digest.
func (f *fleetRun) check() (string, error) {
	want := fleetDigest(f.sim.Result())
	oldest := fmt.Sprintf("%s.%d", f.path, ringKeep-1)
	st, err := os.Stat(oldest)
	if err != nil {
		return "", err
	}
	f.ckBytes = st.Size()
	for g := 0; g < ringKeep-1; g++ {
		p := f.path
		if g > 0 {
			p = fmt.Sprintf("%s.%d", f.path, g)
		}
		if err := os.Truncate(p, st.Size()/2); err != nil {
			return "", err
		}
	}
	t0 := time.Now()
	ck, gen, err := fleet.LoadCheckpointNewest(f.path)
	f.load = time.Since(t0)
	if err != nil {
		return "", fmt.Errorf("load after crash: %w", err)
	}
	if gen != ringKeep-1 {
		return "", fmt.Errorf("resumed from generation %d, want %d", gen, ringKeep-1)
	}
	t1 := time.Now()
	sim, err := fleet.Resume(f.cfg, ck)
	f.restore = time.Since(t1)
	if err != nil {
		return "", fmt.Errorf("resume: %w", err)
	}
	for !sim.Done() {
		sim.StepDay()
	}
	if got := fleetDigest(sim.Result()); got != want {
		return "", fmt.Errorf("resumed run digest %.16s differs from the uninterrupted %.16s", got, want)
	}
	return want, nil
}

// fleetDigest hashes the per-realm state digests and the E21 windows.
func fleetDigest(r *fleet.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "days=%d carriers=%d subs=%d events=%d\n", r.Days, r.Carriers, r.SubscribersEnd, r.EventsApplied)
	for _, rr := range r.Realms {
		fmt.Fprintf(h, "realm %s enabled=%v created=%d expired=%d failures=%d\n%s\n", rr.ID, rr.EnabledEnd, rr.Created, rr.Expired, rr.Failures, rr.Digest)
	}
	for _, w := range r.Windows {
		fmt.Fprintf(h, "window %+v\n", w)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (f *fleetRun) layers(tr *tracer, wall time.Duration) map[string]float64 {
	step := millis(tr.named("fleet.step_day"))
	capture := millis(tr.named("fleet.checkpoint_capture"))
	save := millis(tr.named("fleet.checkpoint_save"))
	render := millis(tr.named("fleet.metrics_render"))
	stepT, _ := tr.total("fleet.step_day")
	capT, _ := tr.total("fleet.checkpoint_capture")
	saveT, _ := tr.total("fleet.checkpoint_save")
	renderT, _ := tr.total("fleet.metrics_render")
	return map[string]float64{
		"fleet.step_day_ms.p50":           median(step),
		"fleet.step_day_ms.p90":           quantile(step, 0.9),
		"fleet.checkpoint_capture_ms.p50": median(capture),
		"fleet.checkpoint_save_ms.p50":    median(save),
		"fleet.checkpoint_save_ms.p90":    quantile(save, 0.9),
		"fleet.metrics_render_us.p50":     median(render) * 1e3,
		"fleet.share.step":                stepT.Seconds() / wall.Seconds(),
		"fleet.share.checkpoint":          (capT + saveT).Seconds() / wall.Seconds(),
		"fleet.share.metrics":             renderT.Seconds() / wall.Seconds(),
		"fleet.checkpoint_bytes":          float64(f.ckBytes),
		"fleet.load_ms":                   float64(f.load) / 1e6,
		"fleet.restore_ms":                float64(f.restore) / 1e6,
		"fleet.resume_s":                  (f.load + f.restore).Seconds(),
	}
}

func (f *fleetRun) close() { os.RemoveAll(f.dir) }
