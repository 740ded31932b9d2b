package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"cgn/internal/fleet"
	"cgn/internal/metrics"
)

// newMux builds the daemon's observability surface. Handlers read the
// atomically published snapshot and never touch the simulation, so
// serving stays safe and wait-free while the day loop runs.
//
// withPprof additionally mounts the net/http/pprof handlers under
// /debug/pprof/ — explicit registrations on this private mux rather
// than the package's http.DefaultServeMux side effect, so profiling is
// opt-in per process (-pprof) and the default surface stays minimal.
func newMux(st *obs, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Liveness vs readiness: /livez answers 200 whenever the process can
	// serve at all (restarting it would not help), while /healthz turns
	// 503 when the simulated world or the durability machinery is
	// degraded — pool lanes dark to a fault, the last checkpoint write
	// failed, or the newest checkpoint is older than
	// -checkpoint-stale-after.
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var reasons []string
		if m := &st.view.Load().m; m.LanesDown > 0 {
			reasons = append(reasons, fmt.Sprintf("%d pool lane(s) down", m.LanesDown))
		}
		if st.lastCkFailed.Load() {
			reasons = append(reasons, "last checkpoint write failed")
		}
		if st.staleAfter > 0 {
			if last := st.lastCkUnix.Load(); last > 0 {
				if age := time.Since(time.Unix(last, 0)); age > st.staleAfter {
					reasons = append(reasons, fmt.Sprintf("checkpoint %s old exceeds %s", age.Round(time.Second), st.staleAfter))
				}
			}
		}
		if len(reasons) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: %s\n", strings.Join(reasons, "; "))
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		v := st.view.Load()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fleet.WritePrometheus(w, v.m)
		// Daemon-level series the fleet snapshot cannot know: checkpoint
		// recency (wall clock — this is operational, not virtual, time)
		// and whether this process restored from a checkpoint.
		age := -1
		if last := st.lastCkUnix.Load(); last > 0 {
			age = int(time.Since(time.Unix(last, 0)).Seconds())
		}
		x := metrics.NewWriter(w)
		x.Family(metrics.Family{Name: "cgnsimd_checkpoint_writes_total", Type: metrics.TypeCounter, Help: "Checkpoints written by this process."})
		x.Sample("", metrics.Uint(st.ckWrites.Load()))
		x.Family(metrics.Family{Name: "cgnsimd_checkpoint_age_seconds", Type: metrics.TypeGauge, Help: "Wall seconds since the last checkpoint write (-1 before the first)."})
		x.Sample("", metrics.Int(age))
		x.Family(metrics.Family{Name: "cgnsimd_checkpoint_retries_total", Type: metrics.TypeCounter, Help: "Checkpoint write re-attempts after a failed attempt."})
		x.Sample("", metrics.Uint(st.ckRetries.Load()))
		x.Family(metrics.Family{Name: "cgnsimd_checkpoint_write_failures_total", Type: metrics.TypeCounter, Help: "Failed checkpoint write attempts (injected or real)."})
		x.Sample("", metrics.Uint(st.ckFailures.Load()))
		x.Family(metrics.Family{Name: "cgnsimd_resumed", Type: metrics.TypeGauge, Help: "Whether this process restored from a checkpoint."})
		x.Sample("", metrics.Bool(st.resumed))
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		v := st.view.Load()
		m := &v.m
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "cgnsimd — longitudinal CGN fleet simulation\n\n")
		fmt.Fprintf(w, "virtual day     %d / %d (%d ticks/day)\n", m.Day, m.Days, m.TicksPerDay)
		fmt.Fprintf(w, "carriers        %d (%d running CGN)\n", m.Carriers, m.ActiveCGN)
		fmt.Fprintf(w, "subscribers     %d\n", m.Subscribers)
		fmt.Fprintf(w, "timeline events %d applied\n", m.EventsApplied)
		fmt.Fprintf(w, "mappings        %d created, %d expired, %d refreshes, %d allocation failures\n\n", m.Created, m.Expired, m.Refreshes, m.Failures)
		fmt.Fprintf(w, "%-12s %-4s %-9s %7s %9s %7s %12s %10s\n", "realm", "cgn", "subs", "live", "in-use", "util", "created", "failures")
		for i := range m.Realms {
			r := &m.Realms[i]
			state := "off"
			if r.Enabled {
				state = "on"
			}
			fmt.Fprintf(w, "%-12s %-4s %-9d %7d %9d %6.1f%% %12d %10d\n",
				r.ID, state, r.Subscribers, r.Live, r.Ports.InUse, 100*r.Util, r.Created, r.Failures)
		}
	})
	return mux
}
