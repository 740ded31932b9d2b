package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cgn/internal/fleet"
	"cgn/internal/traffic"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics golden under testdata from the current daemon")

// syncBuffer is a goroutine-safe output sink for driving run()
// concurrently with assertions on what it printed.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func baseArgs() []string {
	return []string{
		"-carriers", "4", "-subscribers", "20", "-days", "8",
		"-day-ticks", "48", "-seed", "5",
	}
}

// TestResumeMatchesUninterrupted is the daemon-level determinism smoke:
// an uninterrupted reference run, then a run stopped after three days
// (checkpointing on its cadence) and resumed by a second process
// incarnation — with different worker and shard counts — must produce a
// byte-identical digests file.
func TestResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.txt")
	var out syncBuffer
	ref := append(baseArgs(), "-workers", "2", "-shards", "2", "-digests", refPath)
	if err := run(ref, &out); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out.String())
	}

	ck := filepath.Join(dir, "fleet.ckpt")
	interrupted := append(baseArgs(), "-workers", "3", "-shards", "1",
		"-checkpoint", ck, "-checkpoint-every", "2", "-stop-after-days", "3")
	if err := run(interrupted, &out); err != nil {
		t.Fatalf("interrupted run: %v\n%s", err, out.String())
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint after stop: %v", err)
	}

	gotPath := filepath.Join(dir, "got.txt")
	resumed := append(baseArgs(), "-workers", "1", "-shards", "3",
		"-checkpoint", ck, "-resume", "-digests", gotPath)
	if err := run(resumed, &out); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out.String())
	}

	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed digests differ from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", want, got)
	}
	if !strings.Contains(string(want), "digest=sha256:") {
		t.Fatalf("digests carry no state fingerprints:\n%s", want)
	}
}

// waitForAddr polls the daemon's output until it announces its bound
// listener address.
func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its listener:\n%s", out.String())
		}
		if s := out.String(); strings.Contains(s, "listening on http://") {
			s = s[strings.Index(s, "listening on http://")+len("listening on http://"):]
			return strings.TrimSpace(s[:strings.IndexAny(s, " \n")])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sigterm terminates a daemon started in a goroutine and waits for its
// run() to return cleanly.
func sigterm(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// TestPprofEndpoints is the -pprof smoke: with the flag, the profiling
// surface under /debug/pprof/ must serve (index, cmdline, and a short
// CPU profile — seconds=1, since the handler treats an absent/zero
// seconds as its 30s default); without the flag it must stay unmounted.
func TestPprofEndpoints(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	args := append(baseArgs(), "-days", "100000", "-throttle", "25ms",
		"-listen", "127.0.0.1:0", "-pprof")
	go func() { done <- run(args, &out) }()
	addr := waitForAddr(t, &out)

	status := func(path string) int {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/profile?seconds=1",
	} {
		if code := status(path); code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, code)
		}
	}
	if !strings.Contains(out.String(), "/debug/pprof") {
		t.Errorf("listener line does not advertise pprof:\n%s", out.String())
	}
	sigterm(t, done)

	// Same daemon without -pprof: the profiling surface must 404.
	out = syncBuffer{}
	done = make(chan error, 1)
	args = append(baseArgs(), "-days", "100000", "-throttle", "25ms",
		"-listen", "127.0.0.1:0")
	go func() { done <- run(args, &out) }()
	addr = waitForAddr(t, &out)
	if code := status("/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/ without -pprof: status %d, want 404", code)
	}
	sigterm(t, done)
}

// TestServesMetricsWhileRunning drives the daemon with a throttled day
// loop, scrapes /metrics, /status and /healthz while it advances, then
// terminates it with SIGTERM and checks it checkpointed on the way out.
func TestServesMetricsWhileRunning(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "fleet.ckpt")
	var out syncBuffer
	done := make(chan error, 1)
	args := append(baseArgs(), "-days", "100000", "-throttle", "25ms",
		"-listen", "127.0.0.1:0", "-checkpoint", ck)
	go func() { done <- run(args, &out) }()

	// The daemon prints the bound address once the listener is up.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its listener:\n%s", out.String())
		}
		if s := out.String(); strings.Contains(s, "listening on http://") {
			s = s[strings.Index(s, "listening on http://")+len("listening on http://"):]
			addr = strings.TrimSpace(s[:strings.IndexAny(s, " \n")])
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}

	if !strings.Contains(get("/healthz"), "ok") {
		t.Error("healthz not ok")
	}
	// Scrape until the simulation has visibly advanced: the created
	// counter is non-zero once the first virtual day completes.
	var metrics string
	for {
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed progress:\n%s", metrics)
		}
		metrics = get("/metrics")
		if strings.Contains(metrics, "cgnsimd_mappings_created_total{") &&
			!strings.Contains(metrics, "cgnsimd_virtual_day 0") {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		"cgnsimd_port_utilization{realm=",
		"cgnsimd_allocation_failures_total{realm=",
		"cgnsimd_carrier_cgn_enabled{realm=",
		"cgnsimd_checkpoint_age_seconds",
		"cgnsimd_resumed 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("missing metrics series %q", want)
		}
	}
	status := get("/status")
	if !strings.Contains(status, "virtual day") || !strings.Contains(status, "carrier00") {
		t.Errorf("status page incomplete:\n%s", status)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
	if !strings.Contains(out.String(), "state checkpointed") {
		t.Errorf("no checkpoint-on-signal message:\n%s", out.String())
	}
	if _, err := os.Stat(ck); err != nil {
		t.Errorf("no checkpoint file after SIGTERM: %v", err)
	}
}

// TestMetricsGolden pins the daemon's full /metrics body byte for byte
// against testdata/metrics_golden.txt: the fleet families over a
// deterministic three-carrier snapshot, then the daemon's own series
// for a resumed process that has retried and failed checkpoint writes
// but not yet landed one (age -1). Regenerate with
// `go test ./cmd/cgnsimd -run TestMetricsGolden -update` only for a
// deliberate, reviewed change to the exposition.
func TestMetricsGolden(t *testing.T) {
	sim, err := fleet.New(fleet.Config{
		Seed:     3,
		Days:     4,
		Profile:  traffic.Profile{DayTicks: 24},
		Carriers: fleet.SyntheticFleet(3, 3, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.StepDay()
	st := &obs{resumed: true}
	st.view.Store(&obsView{m: sim.Metrics()})
	st.ckRetries.Store(2)
	st.ckFailures.Store(3)

	rec := httptest.NewRecorder()
	newMux(st, false).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("/metrics drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
