package fleet

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/traffic"
)

// testFleet is a five-carrier fleet exercising every timeline event
// kind: growth and churn on carrier 0, re-provisioning and a disable on
// carrier 1, a late-onset enable on carrier 2, a disable/re-enable
// cycle on carrier 3, and carrier 4 as a never-CGN ground-truth
// negative.
func testFleet() ([]CarrierSpec, Timeline) {
	specs := SyntheticFleet(42, 5, 30)
	specs[0].CGNEnabled = true
	specs[1].CGNEnabled = true
	specs[2].CGNEnabled = false
	specs[3].CGNEnabled = true
	specs[4].CGNEnabled = false
	tl := Timeline{Events: []Event{
		{Day: 2, Carrier: 0, Kind: EventGrow, Arg: 10},
		{Day: 4, Carrier: 0, Kind: EventChurn, Arg: 5},
		{Day: 3, Carrier: 1, Kind: EventReprovision, Arg: 2},
		{Day: 7, Carrier: 1, Kind: EventDisable},
		{Day: 2, Carrier: 2, Kind: EventEnable},
		{Day: 3, Carrier: 3, Kind: EventDisable},
		{Day: 6, Carrier: 3, Kind: EventEnable},
	}}
	return specs, tl
}

func testConfig(workers, shards int) Config {
	specs, tl := testFleet()
	return Config{
		Seed:     7,
		Days:     10,
		Profile:  traffic.Profile{DayTicks: 96},
		Carriers: specs,
		Timeline: tl,
		Obs:      ObservationConfig{Windows: []int{1, 2, 3, 5, 8}},
		Workers:  workers,
		Shards:   shards,
	}
}

// heavyConfig is a one-carrier fleet loaded hard enough that every
// subscriber holds dozens of live mappings — three flows a tick against
// a 300 s idle timeout — with a growth event on day 1. The growth and
// every resume rebuild the live-count census with subscribers far above
// its initial buckets.
func heavyConfig(workers, shards int) Config {
	specs := SyntheticFleet(5, 1, 8)
	specs[0].CGNEnabled = true
	specs[0].NAT.UDPTimeout = 300 * time.Second
	return Config{
		Seed:     5,
		Days:     4,
		Profile:  traffic.Profile{DayTicks: 96, FlowsPerTick: 3},
		Carriers: specs,
		Timeline: Timeline{Events: []Event{{Day: 1, Carrier: 0, Kind: EventGrow, Arg: 4}}},
		Obs:      ObservationConfig{Windows: []int{1, 2, 4}},
		Workers:  workers,
		Shards:   shards,
	}
}

// attackConfig is testConfig with adversaries: a tenth of every
// population batch floods twenty fresh ports a tick and a scanner
// probes every pool IP. Churn on carrier 0 retires its day-zero
// flooders along with the other longest-standing members.
func attackConfig(workers, shards int) Config {
	cfg := testConfig(workers, shards)
	cfg.Profile.AttackerFrac = 0.1
	cfg.Profile.AttackerFlowsPerTick = 20
	cfg.Profile.ScannerProbesPerTick = 2
	return cfg
}

// peakLive is the largest live-mapping count any subscriber holds.
func (s *Sim) peakLive() int32 {
	var peak int32
	for _, r := range s.realms {
		if r.k == nil {
			continue
		}
		live := make(map[netaddr.Addr]int32)
		r.k.NAT().ForEachMapping(func(m *nat.Mapping) {
			live[m.Int.Addr]++
			peak = max(peak, live[m.Int.Addr])
		})
	}
	return peak
}

// TestResumeDeterminism is the fleet's core acceptance pin: killing the
// run at any day boundary and resuming from the serialized checkpoint
// — across worker counts AND shard counts, 0 included — yields a Result
// (per-realm StateDigests, E21 window scores, every counter and
// histogram stat) byte-identical to the uninterrupted run. Each row runs
// the reference, the checkpointed run and the resumed run at its own
// shard count. The heavy-load row cuts after a growth event while
// subscribers hold at least 16 live mappings each; the attackers row
// cuts while flooders hold far more mappings than any legitimate
// subscriber.
func TestResumeDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		cfg                           func(workers, shards int) Config
		refShards, ckShards, reShards int
		cuts                          []int
		minPeakLive                   int32
	}{
		{"sharded", testConfig, 1, 2, 3, []int{1, 5, 9}, 0},
		{"zero-shards", testConfig, 0, 3, 0, []int{1, 5, 9}, 0},
		{"heavy-load", heavyConfig, 2, 0, 1, []int{2, 3}, 16},
		{"attackers", attackConfig, 3, 1, 2, []int{2, 5, 8}, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := Run(tc.cfg(1, tc.refShards))
			if err != nil {
				t.Fatal(err)
			}
			if ref.Created == 0 || ref.EventsApplied != len(tc.cfg(1, 0).Timeline.Events) {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			for _, cut := range tc.cuts {
				s, err := New(tc.cfg(3, tc.ckShards))
				if err != nil {
					t.Fatal(err)
				}
				for s.Day() < cut {
					s.StepDay()
				}
				if peak := s.peakLive(); peak < tc.minPeakLive {
					t.Fatalf("cut %d: peak live mappings per subscriber %d, want >= %d", cut, peak, tc.minPeakLive)
				}
				// Round-trip the checkpoint through the file codec, as the
				// daemon would across a kill.
				data, err := s.Checkpoint().encode()
				if err != nil {
					t.Fatal(err)
				}
				ck, err := DecodeCheckpoint(data)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(tc.cfg(2, tc.reShards), ck)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				for !resumed.Done() {
					resumed.StepDay()
				}
				got := resumed.Result()
				if !reflect.DeepEqual(got, ref) {
					for i := range ref.Realms {
						if got.Realms[i] != ref.Realms[i] {
							t.Errorf("cut %d realm %d diverged:\n got %+v\nwant %+v", cut, i, got.Realms[i], ref.Realms[i])
						}
					}
					t.Fatalf("cut %d: resumed result differs from uninterrupted run:\n got %+v\nwant %+v", cut, got, ref)
				}
			}
		})
	}
}

// defendedConfig arms the allocation defenses on every carrier — a
// tight token bucket plus evict-oldest-idle over a squeezed port space —
// so checkpoint cuts cross live bucket levels and eviction state.
func defendedConfig(workers, shards int) Config {
	cfg := testConfig(workers, shards)
	for i := range cfg.Carriers {
		nc := &cfg.Carriers[i].NAT
		nc.PortLo, nc.PortHi = 2048, 2048+63
		nc.AllocRatePerSec = 0.02
		nc.AllocBurst = 4
		nc.Eviction = nat.EvictOldestIdle
	}
	return cfg
}

// TestResumeDeterminismDefended extends the resume pin to the defense
// machinery: with the token bucket and eviction policy active, a cut
// must serialize bucket levels and the eviction counters such that the
// resumed run stays byte-identical to the uninterrupted one, at any
// shard counts, 0 included. The reference run must actually exercise
// both defenses, or the pin proves nothing.
func TestResumeDeterminismDefended(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		refShards, ckShards, reShards int
	}{
		{"sharded", 1, 2, 1},
		{"zero-shards", 0, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refSim, err := New(defendedConfig(1, tc.refShards))
			if err != nil {
				t.Fatal(err)
			}
			for !refSim.Done() {
				refSim.StepDay()
			}
			var rateLimited, evictions uint64
			for _, r := range refSim.Metrics().Realms {
				rateLimited += r.Ports.RateLimited
				evictions += r.Ports.Evictions
			}
			if rateLimited == 0 || evictions == 0 {
				t.Fatalf("defenses idle in reference run: rate-limited %d, evictions %d", rateLimited, evictions)
			}
			ref := refSim.Result()
			for _, cut := range []int{2, 6} {
				s, err := New(defendedConfig(2, tc.ckShards))
				if err != nil {
					t.Fatal(err)
				}
				for s.Day() < cut {
					s.StepDay()
				}
				data, err := s.Checkpoint().encode()
				if err != nil {
					t.Fatal(err)
				}
				ck, err := DecodeCheckpoint(data)
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Resume(defendedConfig(3, tc.reShards), ck)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				for !resumed.Done() {
					resumed.StepDay()
				}
				if got := resumed.Result(); !reflect.DeepEqual(got, ref) {
					t.Fatalf("cut %d: defended resume diverged:\n got %+v\nwant %+v", cut, got, ref)
				}
			}
		})
	}
}

// TestResumeAtHorizon checks the boundary case: a checkpoint taken when
// the run is already done resumes to a completed sim with the same
// result.
func TestResumeAtHorizon(t *testing.T) {
	s, err := New(testConfig(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		s.StepDay()
	}
	resumed, err := Resume(testConfig(1, 0), s.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Done() {
		t.Fatalf("resumed sim at day %d not done", resumed.Day())
	}
	if !reflect.DeepEqual(resumed.Result(), s.Result()) {
		t.Fatal("horizon resume changed the result")
	}
}

// TestCheckpointBytesIndependentOfExecution pins that a checkpoint is a
// function of the simulated state alone: two uninterrupted runs of one
// fleet, stepped to the same day at different Workers and Shards,
// encode byte-identical checkpoints. The fleets cover chunk-allocated,
// quota'd and rate-limited carriers, whose NAT snapshots carry the
// chunk table, token buckets and the metric counters.
func TestCheckpointBytesIndependentOfExecution(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(workers, shards int) Config
	}{
		{"plain", testConfig},
		{"defended", defendedConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			encodeAt := func(workers, shards, day int) []byte {
				s, err := New(tc.cfg(workers, shards))
				if err != nil {
					t.Fatal(err)
				}
				for s.Day() < day {
					s.StepDay()
				}
				data, err := s.Checkpoint().encode()
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			for _, day := range []int{1, 5} {
				a, b := encodeAt(1, 1, day), encodeAt(3, 3, day)
				if !bytes.Equal(a, b) {
					t.Fatalf("day %d: checkpoints differ between workers=1 shards=1 (%d bytes) and workers=3 shards=3 (%d bytes)", day, len(a), len(b))
				}
			}
		})
	}
}

// smallCheckpoint runs a tiny sim a couple of days and returns its
// checkpoint bytes plus the config.
func smallCheckpoint(t *testing.T) (Config, []byte) {
	t.Helper()
	cfg := Config{
		Seed:     3,
		Days:     4,
		Profile:  traffic.Profile{DayTicks: 24},
		Carriers: SyntheticFleet(3, 2, 10),
		Obs:      ObservationConfig{Windows: []int{1, 2}},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StepDay()
	s.StepDay()
	data, err := s.Checkpoint().encode()
	if err != nil {
		t.Fatal(err)
	}
	return cfg, data
}

// TestCheckpointCodecRejectsDamage pins the codec's failure mode:
// truncated, corrupted, mislabelled or version-skewed bytes produce a
// descriptive error — never a panic, never a silently wrong state.
func TestCheckpointCodecRejectsDamage(t *testing.T) {
	_, data := smallCheckpoint(t)
	if _, err := DecodeCheckpoint(data); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	// Truncation at every kind of boundary: inside the magic, inside
	// the header, inside the body, inside the checksum trailer.
	for _, n := range []int{0, 4, 11, 40, len(data) / 2, len(data) - 33, len(data) - 1} {
		if n >= len(data) {
			continue
		}
		if _, err := DecodeCheckpoint(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
	// Single-byte corruption in the magic, the version, the body and
	// the trailer.
	for _, pos := range []int{0, 9, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x40
		if _, err := DecodeCheckpoint(bad); err == nil {
			t.Errorf("corruption at byte %d accepted", pos)
		}
	}
	// Version skew: patch the version field and recompute the checksum
	// so only the version mismatches.
	skew := append([]byte(nil), data...)
	skew[11] = checkpointVersion + 1
	sum := sha256.Sum256(skew[:len(skew)-32])
	copy(skew[len(skew)-32:], sum[:])
	_, err := DecodeCheckpoint(skew)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version skew not rejected as such: %v", err)
	}
}

// TestCheckpointFileRoundTrip exercises Save/Load against a real file.
func TestCheckpointFileRoundTrip(t *testing.T) {
	cfg, data := smallCheckpoint(t)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, ck) {
		t.Fatal("checkpoint changed across file round-trip")
	}
	if _, err := Resume(cfg, loaded); err != nil {
		t.Fatal(err)
	}
}

// TestAtomicWriteCrash simulates a crash mid-write: the destination
// must keep its previous contents and the directory must hold no
// partial or temporary files afterwards.
func TestAtomicWriteCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	if err := os.WriteFile(path, []byte("previous checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half a checkp")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("injected error lost: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "previous checkpoint" {
		t.Fatalf("destination disturbed by failed write: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "fleet.ckpt" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory not clean after simulated crash: %v", names)
	}
}

// TestResumeRejectsMismatch pins config-signature enforcement and
// structural validation at resume time.
func TestResumeRejectsMismatch(t *testing.T) {
	cfg, data := smallCheckpoint(t)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, err := Resume(other, ck); err == nil {
		t.Error("seed change accepted")
	}
	tampered := *ck
	tampered.Day = cfg.Days + 1
	tampered.Sig = cfg.signature()
	if _, err := Resume(cfg, &tampered); err == nil {
		t.Error("out-of-range day accepted")
	}
	tampered = *ck
	tampered.EventsApplied += 3
	if _, err := Resume(cfg, &tampered); err == nil {
		t.Error("event-count mismatch accepted")
	}
}

// TestBoundedAggregation pins the windowed-aggregation memory
// contract: tripling the virtual horizon must not grow the
// duration-facing accumulator state (observation rings and sample
// histograms) beyond the slack a longer run's slightly taller
// histogram tail may add.
func TestBoundedAggregation(t *testing.T) {
	footprint := func(days int) int {
		cfg := Config{
			Seed:     5,
			Days:     days,
			Profile:  traffic.Profile{DayTicks: 48},
			Carriers: SyntheticFleet(5, 3, 25),
			Obs:      ObservationConfig{Windows: []int{1, 3, 6}},
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for !s.Done() {
			s.StepDay()
		}
		return s.aggregationFootprint()
	}
	short, long := footprint(8), footprint(24)
	if long > short+16 {
		t.Fatalf("aggregation state grew with duration: %d elements over 8 days, %d over 24", short, long)
	}
}

// TestPrometheusExposition validates the /metrics payload shape: every
// sample line parses as <name>{labels} <value>, every family has HELP
// and TYPE preambles, and the key series carry live data.
func TestPrometheusExposition(t *testing.T) {
	s, err := New(testConfig(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for s.Day() < 3 {
		s.StepDay()
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, s.Metrics())
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "gauge" && parts[3] != "counter") {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !typed[name] {
			t.Fatalf("series %q has no preceding TYPE", name)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"cgnsimd_virtual_day 3",
		"cgnsimd_port_utilization{realm=",
		"cgnsimd_mappings_created_total{realm=",
		"cgnsimd_quota_refusals_total{realm=",
		"cgnsimd_rate_limited_total{realm=",
		"cgnsimd_quota_evictions_total{realm=",
		"cgnsimd_carrier_cgn_enabled{realm=",
		"cgnsimd_timeline_events_applied_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q", want)
		}
	}
	m := s.Metrics()
	if m.Created == 0 || m.Subscribers == 0 {
		t.Fatalf("metrics snapshot carries no live data: %+v", m)
	}
}

// TestScriptTimeline pins the generator: deterministic, valid against
// the fleet, and actually evolving (some enables on late-onset
// carriers).
func TestScriptTimeline(t *testing.T) {
	specs := SyntheticFleet(11, 12, 20)
	a := ScriptTimeline(99, specs, 60)
	b := ScriptTimeline(99, specs, 60)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ScriptTimeline not deterministic")
	}
	if len(a.Events) == 0 {
		t.Fatal("ScriptTimeline produced no events")
	}
	cfg := Config{
		Seed:     99,
		Days:     60,
		Carriers: specs,
		Timeline: a,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	enables := 0
	for _, ev := range a.Events {
		if ev.Kind == EventEnable {
			enables++
		}
	}
	if enables == 0 {
		t.Error("no late-onset CGN enables scripted")
	}
}

// TestConfigValidate spot-checks rejection paths.
func TestConfigValidate(t *testing.T) {
	specs, tl := testFleet()
	good := Config{Seed: 1, Days: 10, Carriers: specs, Timeline: tl}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"no days":          func(c *Config) { c.Days = 0 },
		"no carriers":      func(c *Config) { c.Carriers = nil },
		"event day beyond": func(c *Config) { c.Timeline.Events = []Event{{Day: 99, Carrier: 0, Kind: EventEnable}} },
		"event bad realm":  func(c *Config) { c.Timeline.Events = []Event{{Day: 1, Carrier: 77, Kind: EventEnable}} },
		"bad reprovision":  func(c *Config) { c.Timeline.Events = []Event{{Day: 1, Carrier: 0, Kind: EventReprovision, Arg: 0}} },
		"bad windows":      func(c *Config) { c.Obs.Windows = []int{5, 3} },
		"bad vantage":      func(c *Config) { c.Obs.VantageProb = 1.5 },
	} {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWindowMath unit-tests the detector arithmetic.
func TestWindowMath(t *testing.T) {
	obs := ObservationConfig{}.WithDefaults()
	if got := obs.threshold(1); got != 1 {
		t.Errorf("threshold(1) = %d", got)
	}
	if got := obs.threshold(28); got != 2 {
		t.Errorf("threshold(28) = %d", got)
	}
	ring := []bool{true, false, true, false} // days 4,5,6,7 at ring len 4
	if n, any := lastDays(ring, 8, 2); n != 1 || !any {
		t.Errorf("lastDays(...,8,2) = %d,%v", n, any)
	}
	if n, _ := lastDays(ring, 8, 4); n != 2 {
		t.Errorf("lastDays(...,8,4) = %d", n)
	}
}
