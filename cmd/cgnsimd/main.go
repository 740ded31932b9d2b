// Command cgnsimd is the longitudinal fleet daemon: it drives months of
// virtual time over an evolving carrier fleet (internal/fleet) as a
// long-lived process, checkpointing its complete state atomically on a
// virtual-time cadence and on SIGTERM, and serving live observability —
// Prometheus text-exposition metrics and a status page — while the
// simulation advances.
//
// The contract that makes it a daemon worth killing: a run interrupted
// at any checkpoint and restarted with -resume continues byte-identically
// — the final per-realm NAT state digests and the E21 detection scores
// match an uninterrupted run exactly, whatever -workers or -shards
// values either process used.
//
//	cgnsimd -days 90 -carriers 8 -subscribers 200 \
//	        -checkpoint fleet.ckpt -checkpoint-every 7 \
//	        -listen 127.0.0.1:9400 -digests digests.txt
//	# ... kill -TERM it mid-run, then:
//	cgnsimd -days 90 -carriers 8 -subscribers 200 \
//	        -checkpoint fleet.ckpt -resume -digests digests.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"cgn/internal/fleet"
	"cgn/internal/nat"
	"cgn/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cgnsimd:", err)
		os.Exit(1)
	}
}

// obs is the daemon's shared observability state: the day loop stores a
// fresh view after every virtual day, HTTP handlers load it lock-free.
type obs struct {
	view atomic.Pointer[obsView]
	// ckWrites and lastCkUnix feed the checkpoint-age metrics.
	ckWrites   atomic.Uint64
	lastCkUnix atomic.Int64
	// ckRetries counts checkpoint write re-attempts, ckFailures failed
	// write attempts (injected or real); lastCkFailed marks a save whose
	// every attempt failed — a degraded state /healthz surfaces until
	// the next save lands.
	ckRetries    atomic.Uint64
	ckFailures   atomic.Uint64
	lastCkFailed atomic.Bool
	resumed      bool
	// staleAfter is the -checkpoint-stale-after readiness threshold
	// (zero disables the check).
	staleAfter time.Duration
}

type obsView struct {
	m fleet.MetricsSnapshot
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cgnsimd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		carriers    = fs.Int("carriers", 8, "synthetic fleet size")
		subscribers = fs.Int("subscribers", 100, "initial subscribers per carrier")
		days        = fs.Int("days", 90, "virtual horizon in days")
		seed        = fs.Int64("seed", 1, "master seed (fleet, timeline, traffic, observation)")
		workers     = fs.Int("workers", 0, "realm worker pool size (0 = sequential; never affects results)")
		shards      = fs.Int("shards", 0, "per-realm NAT shards (values below 1 mean 1; never affects results)")
		dayTicks    = fs.Int("day-ticks", 288, "virtual ticks per day")
		ckPath      = fs.String("checkpoint", "", "checkpoint file path (enables checkpointing)")
		ckEvery     = fs.Int("checkpoint-every", 7, "checkpoint cadence in virtual days")
		ckKeep      = fs.Int("checkpoint-keep", 3, "checkpoint generations to retain (path, path.1, ...); resume scans back to the newest that validates")
		ckStale     = fs.Duration("checkpoint-stale-after", 0, "report degraded on /healthz when the last checkpoint write is older than this (0 disables)")
		resume      = fs.Bool("resume", false, "restore state from the newest valid -checkpoint generation and continue")
		faults      = fs.Float64("faults", 0, "fault-schedule severity in [0,1]: pool-lane outages and engine restarts scripted over the run")
		ckFailProb  = fs.Float64("fault-checkpoint-fail", 0, "inject checkpoint write failures with this probability per attempt, exercising the retry path (a fault drill; deterministic in -seed)")
		listen      = fs.String("listen", "", "serve /metrics, /status and /healthz on this address (e.g. 127.0.0.1:9400)")
		digests     = fs.String("digests", "", "write final per-realm state digests and E21 scores to this file")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/ on the -listen mux")
		allocRate   = fs.Float64("alloc-rate", 0, "arm a per-subscriber allocation token bucket on every carrier (tokens/sec; 0 leaves the fleet undefended)")
		allocBurst  = fs.Int("alloc-burst", 0, "token-bucket burst capacity (0 = engine default; only meaningful with -alloc-rate)")
		evict       = fs.String("evict", "", "eviction policy on every carrier: none or oldest-idle (empty keeps the default refuse behavior)")
		throttle    = fs.Duration("throttle", 0, "wall-clock sleep per virtual day (keeps a demo or smoke-test run observable)")
		stopAfter   = fs.Int("stop-after-days", 0, "checkpoint and exit after this many virtual days of this process's run (0 = run to the horizon); an operations/test hook equivalent to a well-timed SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs := fleet.SyntheticFleet(*seed, *carriers, *subscribers)
	// Defense knobs apply fleet-wide. They are part of the checkpoint's
	// config signature, so a -resume must repeat them — armoring half a
	// run would silently fork the determinism contract otherwise.
	var evictPolicy nat.EvictionPolicy
	switch *evict {
	case "", "none":
		evictPolicy = nat.EvictNone
	case "oldest-idle":
		evictPolicy = nat.EvictOldestIdle
	default:
		return fmt.Errorf("-evict %q: want none or oldest-idle", *evict)
	}
	for i := range specs {
		if *allocRate > 0 {
			specs[i].NAT.AllocRatePerSec = *allocRate
			specs[i].NAT.AllocBurst = *allocBurst
		}
		if *evict != "" {
			specs[i].NAT.Eviction = evictPolicy
		}
	}
	if *faults < 0 || *faults > 1 {
		return fmt.Errorf("-faults %v: want a severity in [0,1]", *faults)
	}
	if *ckFailProb < 0 || *ckFailProb > 1 {
		return fmt.Errorf("-fault-checkpoint-fail %v: want a probability in [0,1]", *ckFailProb)
	}
	timeline := fleet.ScriptTimeline(*seed, specs, *days)
	if *faults > 0 {
		// The fault schedule is part of the timeline, hence of the
		// checkpoint's config signature: a -resume must repeat -faults.
		timeline.Events = append(timeline.Events, fleet.ScriptFaults(*seed, specs, *days, *faults).Events...)
	}
	cfg := fleet.Config{
		Seed:     *seed,
		Days:     *days,
		Profile:  traffic.Profile{DayTicks: *dayTicks},
		Carriers: specs,
		Timeline: timeline,
		Workers:  *workers,
		Shards:   *shards,
	}

	var sim *fleet.Sim
	var err error
	if *resume {
		if *ckPath == "" {
			return fmt.Errorf("-resume needs -checkpoint")
		}
		ck, gen, err := fleet.LoadCheckpointNewest(*ckPath)
		if err != nil {
			return err
		}
		sim, err = fleet.Resume(cfg, ck)
		if err != nil {
			return err
		}
		if gen > 0 {
			fmt.Fprintf(stdout, "resumed from %s (fell back %d generation(s)) at virtual day %d/%d\n", *ckPath, gen, sim.Day(), *days)
		} else {
			fmt.Fprintf(stdout, "resumed from %s at virtual day %d/%d\n", *ckPath, sim.Day(), *days)
		}
	} else {
		sim, err = fleet.New(cfg)
		if err != nil {
			return err
		}
	}

	st := &obs{resumed: *resume, staleAfter: *ckStale}
	st.view.Store(&obsView{m: sim.Metrics()})

	// Register the signal handler before the HTTP listener goes up: the
	// moment the daemon is observable from outside it must already be
	// killable without state loss.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		surface := "/metrics /status /healthz /livez"
		if *pprofOn {
			surface += " /debug/pprof"
		}
		fmt.Fprintf(stdout, "listening on http://%s (%s)\n", ln.Addr(), surface)
		srv := &http.Server{Handler: newMux(st, *pprofOn)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	checkpoint := func() error {
		if *ckPath == "" {
			return nil
		}
		out, err := fleet.SaveCheckpointRetry(*ckPath, sim.Checkpoint(), fleet.RetryPolicy{
			Keep:        *ckKeep,
			MaxAttempts: 4,
			BackoffBase: 250 * time.Millisecond,
			Seed:        *seed,
			Key:         uint64(sim.Day()),
			FailProb:    *ckFailProb,
		})
		st.ckRetries.Add(uint64(out.Retries))
		failed := uint64(out.Retries)
		if err != nil {
			failed++
		}
		st.ckFailures.Add(failed)
		st.lastCkFailed.Store(err != nil)
		if err != nil {
			return err
		}
		st.ckWrites.Add(1)
		st.lastCkUnix.Store(time.Now().Unix())
		return nil
	}

	startDay := sim.Day()
	for !sim.Done() {
		select {
		case sig := <-sigc:
			if err := checkpoint(); err != nil {
				return fmt.Errorf("checkpoint on %v: %w", sig, err)
			}
			fmt.Fprintf(stdout, "%v at virtual day %d/%d: state checkpointed, exiting\n", sig, sim.Day(), *days)
			return nil
		default:
		}
		sim.StepDay()
		st.view.Store(&obsView{m: sim.Metrics()})
		if *ckEvery > 0 && sim.Day()%*ckEvery == 0 && !sim.Done() {
			// A failed cadence write degrades the daemon (/healthz turns
			// non-200, the failure counters tick) but does not kill the
			// run — the next cadence retries from scratch. Terminal
			// checkpoints (signal, -stop-after-days, horizon) still fail
			// hard: exiting without durable state is worse than exiting
			// nonzero.
			if err := checkpoint(); err != nil {
				fmt.Fprintf(stdout, "checkpoint at virtual day %d failed (degraded; next cadence retries): %v\n", sim.Day(), err)
			}
		}
		if *stopAfter > 0 && sim.Day()-startDay >= *stopAfter && !sim.Done() {
			if err := checkpoint(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "stopping after %d days at virtual day %d/%d: state checkpointed\n", *stopAfter, sim.Day(), *days)
			return nil
		}
		if *throttle > 0 {
			time.Sleep(*throttle)
		}
	}
	// Final checkpoint: a later -resume of a finished run is a no-op
	// that still reproduces the result.
	if err := checkpoint(); err != nil {
		return err
	}

	res := sim.Result()
	fmt.Fprintf(stdout, "fleet run complete: %d virtual days, %d carriers, %d subscribers, %d events, %d mappings created\n",
		res.Days, res.Carriers, res.SubscribersEnd, res.EventsApplied, res.Created)
	if *digests != "" {
		if err := writeDigests(*digests, res); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "digests written to %s\n", *digests)
	}
	return nil
}

// writeDigests renders the determinism witness: per-realm engine state
// digests and the E21 window scores, in a stable text format two runs
// can be diffed by.
func writeDigests(path string, res *fleet.Result) error {
	var b []byte
	app := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	app("cgnsimd digests days=%d carriers=%d events=%d\n", res.Days, res.Carriers, res.EventsApplied)
	for _, r := range res.Realms {
		// StateDigest is already a hex SHA-256; a disabled carrier has none.
		digest := r.Digest
		if digest != "disabled" {
			digest = "sha256:" + digest
		}
		app("realm %s enabled=%v subs=%d created=%d expired=%d failures=%d digest=%s\n",
			r.ID, r.EnabledEnd, r.Subscribers, r.Created, r.Expired, r.Failures, digest)
	}
	for _, w := range res.Windows {
		app("window days=%d threshold=%d tp=%d fp=%d fn=%d tn=%d precision=%.6f recall=%.6f f1=%.6f\n",
			w.Days, w.Threshold, w.TP, w.FP, w.FN, w.TN, w.Precision, w.Recall, w.F1)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
