package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cgn/internal/fleet"
)

// TestLivezHealthzSplit unit-tests the liveness/readiness split against
// crafted daemon states: /livez answers 200 in every one of them, while
// /healthz turns 503 — naming the reason — for dark pool lanes, a
// failed checkpoint write, and a stale checkpoint.
func TestLivezHealthzSplit(t *testing.T) {
	st := &obs{staleAfter: time.Hour}
	st.view.Store(&obsView{})
	srv := httptest.NewServer(newMux(st, false))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	expect := func(wantCode int, wantBody string) {
		t.Helper()
		if code, body := get("/healthz"); code != wantCode || !strings.Contains(body, wantBody) {
			t.Errorf("/healthz = %d %q, want %d containing %q", code, body, wantCode, wantBody)
		}
		if code, body := get("/livez"); code != http.StatusOK || !strings.Contains(body, "ok") {
			t.Errorf("/livez = %d %q, want 200 ok", code, body)
		}
	}

	expect(http.StatusOK, "ok")

	st.view.Store(&obsView{m: fleet.MetricsSnapshot{LanesDown: 2}})
	expect(http.StatusServiceUnavailable, "2 pool lane(s) down")
	st.view.Store(&obsView{})

	st.lastCkFailed.Store(true)
	expect(http.StatusServiceUnavailable, "last checkpoint write failed")
	st.lastCkFailed.Store(false)

	st.lastCkUnix.Store(time.Now().Add(-2 * time.Hour).Unix())
	expect(http.StatusServiceUnavailable, "exceeds 1h0m0s")
	st.lastCkUnix.Store(time.Now().Unix())
	expect(http.StatusOK, "ok")
}

// TestCheckpointFailureDegradesDaemon is the fault-drill integration
// smoke: with every checkpoint write injected to fail, the daemon keeps
// running and serving (alive), reports degraded readiness, and counts
// retries and failures on /metrics. The terminal SIGTERM checkpoint
// fails hard — exiting without durable state is an error by contract.
func TestCheckpointFailureDegradesDaemon(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "fleet.ckpt")
	var out syncBuffer
	done := make(chan error, 1)
	args := append(baseArgs(), "-days", "100000", "-throttle", "25ms",
		"-listen", "127.0.0.1:0", "-checkpoint", ck, "-checkpoint-every", "1",
		"-fault-checkpoint-fail", "1")
	go func() { done <- run(args, &out) }()
	addr := waitForAddr(t, &out)

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never degraded on checkpoint failure:\n%s", out.String())
		}
		if code, body := get("/healthz"); code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "last checkpoint write failed") {
				t.Fatalf("degraded for the wrong reason: %q", body)
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _ := get("/livez"); code != http.StatusOK {
		t.Errorf("/livez = %d while degraded, want 200", code)
	}
	_, metrics := get("/metrics")
	for _, want := range []string{"cgnsimd_checkpoint_retries_total", "cgnsimd_checkpoint_write_failures_total"} {
		if !strings.Contains(metrics, want+" ") || strings.Contains(metrics, want+" 0\n") {
			t.Errorf("metrics lack a nonzero %s:\n%s", want, metrics)
		}
	}
	if _, err := os.Stat(ck); err == nil {
		t.Error("a checkpoint file appeared despite certain injected failure")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "checkpoint on") {
			t.Fatalf("terminal checkpoint failure not surfaced: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
}

// TestFaultedResumeMatchesUninterrupted extends the daemon determinism
// smoke to an active fault schedule: a -faults run stopped mid-horizon
// (its cuts landing around lane outages and restarts) and resumed at
// different worker/shard counts produces a digests file byte-identical
// to the uninterrupted faulted reference, which runs at the default
// shard count.
func TestFaultedResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	faulted := func(extra ...string) []string {
		return append(append(baseArgs(), "-faults", "1"), extra...)
	}
	refPath := filepath.Join(dir, "ref.txt")
	var out syncBuffer
	if err := run(faulted("-workers", "2", "-digests", refPath), &out); err != nil {
		t.Fatalf("faulted reference run: %v\n%s", err, out.String())
	}

	ck := filepath.Join(dir, "fleet.ckpt")
	if err := run(faulted("-shards", "2", "-workers", "3", "-checkpoint", ck, "-checkpoint-every", "1",
		"-stop-after-days", "3"), &out); err != nil {
		t.Fatalf("interrupted faulted run: %v\n%s", err, out.String())
	}
	gotPath := filepath.Join(dir, "got.txt")
	resumed := append(baseArgs(), "-faults", "1", "-shards", "3", "-workers", "1",
		"-checkpoint", ck, "-resume", "-digests", gotPath)
	if err := run(resumed, &out); err != nil {
		t.Fatalf("resumed faulted run: %v\n%s", err, out.String())
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
		t.Fatalf("faulted resume diverged from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", want, got)
	}

	// Dropping -faults on resume must be refused — the schedule is part
	// of the config signature, not an execution detail.
	mismatched := append(baseArgs(), "-shards", "1", "-checkpoint", ck, "-resume")
	if err := run(mismatched, &out); err == nil || !strings.Contains(err.Error(), "signature") {
		t.Fatalf("resume without -faults accepted: %v", err)
	}
}
