// Package campaign is the parallel sweep engine: it runs full measurement
// campaigns over many generated worlds — a (scenario, seed) grid — on a
// worker pool, scores every world against its ground truth, and
// aggregates precision/recall into cross-replicate distributions with
// confidence intervals.
//
// The paper reports point estimates from one campaign against one
// Internet; replicated synthetic worlds turn those into distributions.
// Each world stays single-threaded and deterministic — the same seed
// produces byte-identical per-world results whatever the worker count —
// and all parallelism comes from running worlds side by side.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"cgn/internal/detect"
	"cgn/internal/internet"
	"cgn/internal/par"
	"cgn/internal/report"
)

// Methods lists the detection-method names every world is scored under,
// in report order.
var Methods = []string{
	"BitTorrent",
	"Netalyzr cellular",
	"Netalyzr non-cellular",
	"BitTorrent ∪ Netalyzr",
}

// Config parameterizes a sweep.
type Config struct {
	// Scenarios are registry names (internet.Names lists them); each is
	// resolved and validated before any world runs.
	Scenarios []string
	// Replicates is the number of seeds per scenario.
	Replicates int
	// BaseSeed offsets the replicate seeds: replicate i of every
	// scenario runs with seed BaseSeed+i.
	BaseSeed int64
	// Workers is the worker-pool size; 1 runs the sweep fully
	// sequentially.
	Workers int
	// PortSpan and PortQuota, when nonzero, override every scenario's CGN
	// port provisioning (Scenario.CGNPortSpan / CGNPortQuota) — the sweep
	// analogue of cgnsim's -portspan/-portquota flags.
	PortSpan  int
	PortQuota int
	// OnWorld, when set, is called after each world completes, from the
	// worker that ran it. Progress reporting only — results arrive in
	// deterministic order via Sweep's return regardless.
	OnWorld func(WorldResult)
}

// Job is one (scenario, seed) cell of the sweep grid.
type Job struct {
	Scenario string
	Seed     int64
}

// WorldResult is the scored outcome of one world's campaign.
type WorldResult struct {
	Scenario string
	Seed     int64
	// Scores maps method name (see Methods) to its ground-truth score.
	Scores map[string]detect.Score
	// Digest is a SHA-256 over the world's full rendered report — the
	// byte-identity witness determinism tests compare across worker
	// counts.
	Digest string
	// Ports is the E17 port-pressure summary over the world's carrier
	// NATs (utilization and allocation-failure outcomes).
	Ports report.PortPressure
	// Traffic is the E18 temporal summary (per-subscriber concurrent
	// port percentiles and peak utilization under the scenario's
	// traffic profile); Enabled is false when the scenario has none.
	Traffic report.TrafficPressure
	// Adversarial is the E19 attack x defense summary (legitimate
	// failure rates undefended vs token-bucket-defended); Enabled is
	// false when the scenario's traffic profile has no adversaries.
	Adversarial report.AdversarialPressure
	// Observe is the E21 longitudinal summary (detection recall and
	// precision at the shortest and longest observation windows);
	// Enabled is false when the scenario has no observation horizon.
	Observe report.ObservePressure
	// Faults is the E22 fault-injection summary (allocation-failure
	// rate before vs during the harshest pool outage, recovery time and
	// disrupted flows); Enabled is false when the scenario schedules no
	// faults.
	Faults report.FaultPressure
	// ASes and TrueCGN describe the world; Elapsed is the campaign wall
	// time on its worker.
	ASes    int
	TrueCGN int
	Elapsed time.Duration
}

// Sweep holds every per-world result of a finished sweep, ordered by the
// job grid (scenario-major, seed-minor), plus the total wall time.
type Sweep struct {
	Config  Config
	Worlds  []WorldResult
	Elapsed time.Duration
}

// Jobs expands the configured grid in deterministic order.
func (cfg Config) Jobs() []Job {
	jobs := make([]Job, 0, len(cfg.Scenarios)*cfg.Replicates)
	for _, name := range cfg.Scenarios {
		for i := 0; i < cfg.Replicates; i++ {
			jobs = append(jobs, Job{Scenario: name, Seed: cfg.BaseSeed + int64(i)})
		}
	}
	return jobs
}

// validate resolves every scenario name and checks the grid shape.
func (cfg Config) validate() error {
	if len(cfg.Scenarios) == 0 {
		return fmt.Errorf("campaign: no scenarios configured")
	}
	if cfg.Replicates < 1 {
		return fmt.Errorf("campaign: replicates = %d, need at least 1", cfg.Replicates)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("campaign: workers = %d, need at least 1", cfg.Workers)
	}
	for _, name := range cfg.Scenarios {
		sc, err := internet.Lookup(name)
		if err != nil {
			return err
		}
		sc.ApplyPortOverrides(cfg.PortSpan, cfg.PortQuota)
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("campaign: scenario %q: %w", name, err)
		}
	}
	return nil
}

// Run executes the sweep: every (scenario, seed) job on a pool of
// cfg.Workers workers. Results come back indexed by job position, so the
// returned order — and every aggregate derived from it — is independent
// of scheduling.
func Run(cfg Config) (*Sweep, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	jobs := cfg.Jobs()
	results := make([]WorldResult, len(jobs))

	start := time.Now()
	par.Each(len(jobs), cfg.Workers, func(i int) {
		results[i] = runWorld(cfg, jobs[i])
		if cfg.OnWorld != nil {
			cfg.OnWorld(results[i])
		}
	})

	return &Sweep{Config: cfg, Worlds: results, Elapsed: time.Since(start)}, nil
}

// runWorld builds one world, runs the full campaign and scores it. The
// world — generator, simulated network, campaign and analyses — is
// confined to the calling goroutine; report.Collect's internal stage
// concurrency operates on immutable collected data only.
func runWorld(cfg Config, job Job) WorldResult {
	start := time.Now()
	sc, err := internet.Lookup(job.Scenario)
	if err != nil {
		// validate() resolved this name already; a failure here is a
		// registry bug, not an input error.
		panic(err)
	}
	sc.ApplyPortOverrides(cfg.PortSpan, cfg.PortQuota)
	sc.Seed = job.Seed
	w := internet.Build(sc)
	b := report.Collect(w)

	truth := w.CGNTruth()
	sum := sha256.Sum256([]byte(b.All()))
	res := WorldResult{
		Scenario:    job.Scenario,
		Seed:        job.Seed,
		Scores:      make(map[string]detect.Score, 4),
		Digest:      hex.EncodeToString(sum[:]),
		Ports:       b.Load.Pressure(),
		Traffic:     b.Traffic.Pressure(),
		Adversarial: b.Adversarial.Pressure(),
		Observe:     b.Observe.Pressure(),
		Faults:      b.Faults.Pressure(),
		ASes:        w.DB.Len(),
		TrueCGN:     len(truth),
		Elapsed:     time.Since(start),
	}
	for _, v := range []detect.MethodView{b.BTV, b.CellV, b.NonCellV, b.UnionV} {
		res.Scores[v.Name] = v.ScoreAgainstTruth(truth)
	}
	return res
}
