// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator's public packages through four closed-loop workloads —
// metro-day, fleet-quarter, paper-campaign and nat-table — checks the
// simulated output of every pass, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload metro-day --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run repeats the workload with spans recorded around each layer call
// and carries the per-layer metrics instead. catalog.json names every
// metric, its unit and which end-to-end number it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	toy      bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: metro-day, fleet-quarter, paper-campaign or nat-table")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds (at least one pass always runs)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/run", "directory for checkpoints and span dumps")
	fs.BoolVar(&o.toy, "toy", false, "run the workload at self-test size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	wl, err := lookup(o.workload, o.toy)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	res, err := bench(wl, o, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// instance is one workload's inputs, built by setup, ready for one pass.
type instance interface {
	// run is the timed section. tr is nil on untraced passes.
	run(tr *tracer) error
	// work counts the items run completed, in the workload's own unit.
	work() float64
	// check verifies the pass's simulated output and returns its digest.
	// It is not timed.
	check() (string, error)
	// layers returns the per-layer values of a traced pass.
	layers(tr *tracer, wall time.Duration) map[string]float64
	// close releases files the instance holds.
	close()
}

// workload names one benchmark workload and its concurrency shape.
type workload struct {
	name            string
	workers, shards int
	// setup builds the inputs of one pass from the seed.
	setup func(seed int64, workdir string) (instance, error)
}

// passRec is what one pass measured.
type passRec struct {
	traced  bool
	setup   time.Duration
	wall    time.Duration
	alloc   uint64
	work    float64
	digest  string
	layers  map[string]float64
	runtime map[string]float64
	err     error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	minSetups    = 3
	minSetupTime = 250 * time.Millisecond
	maxSetups    = 100000
)

// bench runs the workload's passes for the time budget and reduces them to
// one result. Untraced passes give the end-to-end metrics. Trace mode
// alternates untraced and traced passes, so both sides see the process
// warm up alike; their digests must agree.
func bench(wl *workload, o options, stdout io.Writer) (*result, error) {
	cat, err := loadCatalog()
	if err != nil {
		return nil, err
	}
	host := hostRecord(wl, o.workdir)
	line, err := json.Marshal(host)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "host %s\n", line)

	budget := time.Duration(o.seconds * float64(time.Second))
	var plain, traced []passRec
	var spans []span
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < budget {
		plain = append(plain, onePass(wl, o, nil))
		if o.trace {
			tr := newTracer(wl.name, o.seed, len(traced))
			traced = append(traced, onePass(wl, o, tr))
			spans = append(spans, tr.spans...)
		}
	}
	setups := extraSetups(wl, o, plain, traced)

	// Every pass of one seed must reproduce the first pass's output.
	all := append(append([]passRec(nil), plain...), traced...)
	res := &result{Attempted: len(all)}
	ref := ""
	for _, p := range all {
		if p.err == nil {
			ref = p.digest
			break
		}
	}
	for i, p := range all {
		if p.err == nil {
			p.err = sameDigest(ref, p.digest)
		}
		fmt.Fprintf(stdout, "pass %d traced=%v setup_s=%.6f wall_s=%.6f work=%.0f alloc_mb=%.3f\n",
			i, p.traced, p.setup.Seconds(), p.wall.Seconds(), p.work, float64(p.alloc)/1e6)
		if p.err != nil {
			res.Failed++
			fmt.Fprintf(stdout, "pass %d failed: %v\n", i, p.err)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "digest workload=%s seed=%d %s\n", wl.name, o.seed, ref)

	vals := map[string]float64{}
	if !o.trace {
		vals["setup_s"] = median(setups)
		vals["work_per_s"] = median(collect(plain, func(p passRec) float64 { return p.work / p.wall.Seconds() }))
		vals["alloc_mb"] = median(collect(plain, func(p passRec) float64 { return float64(p.alloc) / 1e6 }))
		res.Metrics, err = cat.emit(cat.EndToEnd, vals, true)
		return res, err
	}
	for _, k := range keys(traced, func(p passRec) map[string]float64 { return p.layers }) {
		vals[k] = median(collect(traced, func(p passRec) float64 { return p.layers[k] }))
	}
	for _, k := range keys(traced, func(p passRec) map[string]float64 { return p.runtime }) {
		vals[k] = median(collect(traced, func(p passRec) float64 { return p.runtime[k] }))
	}
	vals["trace.overhead_frac"] = median(collect(traced, wallSeconds))/median(collect(plain, wallSeconds)) - 1
	path, err := writeSpans(o.workdir, wl.name, o.seed, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans %s\n", path)
	for _, s := range summarize(spans) {
		fmt.Fprintf(stdout, "span %-28s count=%-6d total_ms=%.3f self_ms=%.3f\n", s.name, s.count, s.total.Seconds()*1e3, s.self.Seconds()*1e3)
	}
	res.Metrics, err = cat.emit(cat.PerLayer, vals, false)
	return res, err
}

func sameDigest(want, got string) error {
	if want != got {
		return fmt.Errorf("output digest %.16s differs from the first pass's %.16s", got, want)
	}
	return nil
}

// onePass builds fresh inputs, runs the timed section and checks the
// output. A panic fails the pass instead of the run.
func onePass(wl *workload, o options, tr *tracer) (rec passRec) {
	defer func() {
		if p := recover(); p != nil {
			rec.err = fmt.Errorf("panic: %v", p)
		}
	}()
	rec.traced = tr != nil
	runtime.GC()
	t0 := time.Now()
	inst, err := wl.setup(o.seed, o.workdir)
	rec.setup = time.Since(t0)
	if err != nil {
		rec.err = fmt.Errorf("setup: %w", err)
		return rec
	}
	defer inst.close()
	runtime.GC()
	before := readRuntime()
	t1 := time.Now()
	root := tr.start("pass", -1)
	err = inst.run(tr)
	tr.end(root, 0)
	rec.wall = time.Since(t1)
	after := readRuntime()
	rec.alloc = after.alloc - before.alloc
	rec.work = inst.work()
	if err != nil {
		rec.err = fmt.Errorf("run: %w", err)
		return rec
	}
	if tr != nil {
		// Live heap with the pass's state still referenced.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rec.runtime = after.sub(before)
		rec.runtime["runtime.live_heap_mb"] = float64(ms.HeapInuse) / 1e6
	}
	rec.digest, rec.err = inst.check()
	if tr != nil {
		rec.layers = inst.layers(tr, rec.wall)
	}
	return rec
}

// extraSetups times further setups until there are enough samples for a
// steady median; their instances are discarded unrun.
func extraSetups(wl *workload, o options, passes ...[]passRec) []float64 {
	var out []float64
	var spent time.Duration
	for _, ps := range passes {
		for _, p := range ps {
			out = append(out, p.setup.Seconds())
			spent += p.setup
		}
	}
	d := time.Duration(0)
	for len(out) < minSetups || (spent < minSetupTime && len(out) < maxSetups) {
		// Large setups start from a collected heap, as in onePass; for
		// microsecond setups a GC each would cost more than the setup.
		if d == 0 || d > time.Millisecond {
			runtime.GC()
		}
		t0 := time.Now()
		inst, err := wl.setup(o.seed, o.workdir)
		d = time.Since(t0)
		if err != nil {
			break
		}
		inst.close()
		out = append(out, d.Seconds())
		spent += d
	}
	return out
}

// runtimeStats are the Go runtime counters a traced pass reports.
type runtimeStats struct {
	alloc, gcs      uint64
	pauseNs         uint64
	gcCPU, totalCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{
		alloc:    runtimeSamples[0].Value.Uint64(),
		gcCPU:    runtimeSamples[1].Value.Float64(),
		totalCPU: runtimeSamples[2].Value.Float64(),
		gcs:      uint64(ms.NumGC),
		pauseNs:  ms.PauseTotalNs,
	}
}

func (a runtimeStats) sub(b runtimeStats) map[string]float64 {
	frac := 0.0
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		frac = (a.gcCPU - b.gcCPU) / cpu
	}
	return map[string]float64{
		"runtime.gc_cycles":   float64(a.gcs - b.gcs),
		"runtime.gc_pause_ms": float64(a.pauseNs-b.pauseNs) / 1e6,
		"runtime.gc_cpu_frac": frac,
	}
}

// host describes where a result set was measured.
type host struct {
	Workload     string `json:"workload"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Workers      int    `json:"workers"`
	Shards       int    `json:"shards"`
	CheckpointFS string `json:"checkpoint_fs,omitempty"`
}

func hostRecord(wl *workload, workdir string) host {
	h := host{
		Workload:   wl.name,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workers:    wl.workers,
		Shards:     wl.shards,
	}
	if wl.name == "fleet-quarter" {
		h.CheckpointFS = fsType(workdir)
	}
	return h
}

func lookup(name string, toy bool) (*workload, error) {
	procs := runtime.GOMAXPROCS(0)
	switch name {
	case "metro-day":
		return metroWorkload(toy), nil
	case "fleet-quarter":
		return fleetWorkload(procs, toy), nil
	case "paper-campaign":
		return campaignWorkload(toy), nil
	case "nat-table":
		return natWorkload(procs, toy), nil
	}
	return nil, fmt.Errorf("unknown --workload %q: want metro-day, fleet-quarter, paper-campaign or nat-table", name)
}
