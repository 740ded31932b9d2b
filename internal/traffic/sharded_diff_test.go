// Shard-count byte-identity: the engine's determinism contract says
// Config.Shards is purely a resource knob — subscribers pin
// to lanes by address hash and every lane is driven in the same order
// whatever shard drives it, so Results and per-realm NAT state digests
// are identical at any shard count. This test is the differential: every
// registry traffic scenario plus a synthetic multi-lane realm set, run
// at shards=1 against shards=N (and against workers x shards), asserting
// deeply equal Results and identical final-tick digests.
//
// Lives in package traffic_test for the same reason as parallel_test.go:
// it builds registry worlds, and internet imports traffic.
package traffic_test

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/internet"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/traffic"
)

// runShardedDiff runs the spec set at the given workers/shards and
// returns the Result plus per-realm final-tick state digests.
func runShardedDiff(profile traffic.Profile, seed int64, specs []traffic.RealmSpec, workers, shards int) (*traffic.Result, map[string]string) {
	lastTick := profile.WithDefaults().Ticks - 1
	var mu sync.Mutex
	digests := make(map[string]string)
	res := traffic.Run(traffic.Config{
		Seed:    seed,
		Profile: profile,
		Realms:  specs,
		Workers: workers,
		Shards:  shards,
		Observer: func(realm traffic.RealmSpec, tick int, _ time.Time, n nat.View) {
			if tick != lastTick {
				return
			}
			d := n.StateDigest()
			mu.Lock()
			digests[realm.ID] = d
			mu.Unlock()
		},
	})
	return res, digests
}

// TestShardedShardCountInvariance is the workers × shards differential
// over every registry traffic scenario: the full shards {1,2,3,5,16} ×
// workers {1,3,4} grid against the workers=1 shards=1 baseline. With the
// single-phase tick loop every arrival draw comes from a per-lane
// stream, so invariance here pins exactly the property that makes the
// persistent-worker barrier safe: no draw order depends on which shard
// or worker runs a lane.
func TestShardedShardCountInvariance(t *testing.T) {
	for _, name := range trafficScenarios(t) {
		t.Run(name, func(t *testing.T) {
			sc, err := internet.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed = 5
			specs := worldSpecs(t, name, internet.Build(sc))
			baseRes, baseDig := runShardedDiff(sc.Traffic, sc.Seed^0x7AFF1C0DE, specs, 1, 1)
			if len(baseDig) != len(baseRes.Realms) {
				t.Fatalf("digest observer saw %d realms, result has %d (realm IDs must be unique)",
					len(baseDig), len(baseRes.Realms))
			}
			// Some scenarios (e.g. sparse-cgn) can build worlds whose
			// carrier NATs saw no subscribers at this seed; the identity
			// checks below still hold, but only loaded runs must have
			// driven flows.
			if len(baseRes.Realms) > 0 && baseRes.Created == 0 {
				t.Fatalf("scenario %q loaded %d realms but drove no flows", name, len(baseRes.Realms))
			}
			for _, workers := range []int{1, 3, 4} {
				for _, shards := range []int{1, 2, 3, 5, 16} {
					if workers == 1 && shards == 1 {
						continue
					}
					res, dig := runShardedDiff(sc.Traffic, sc.Seed^0x7AFF1C0DE, specs, workers, shards)
					if !reflect.DeepEqual(baseRes, res) {
						t.Errorf("workers=%d shards=%d: Result differs from baseline:\n%+v\nvs\n%+v",
							workers, shards, baseRes, res)
					}
					if !reflect.DeepEqual(baseDig, dig) {
						t.Errorf("workers=%d shards=%d: NAT state digests differ from baseline:\n%v\nvs\n%v",
							workers, shards, baseDig, dig)
					}
				}
			}
		})
	}
}

// directGateArrivals is the transparent reference decoder for the
// skip-sampling differential: it visits all n subscriber positions one
// by one — the O(n) per-subscriber gating shape the old driver phase
// had — while consuming the stream exactly as ForEachArrival's
// geometric jumps do (one exponential gap draw per arrival run, one
// conditional flow-count draw per arrival). Same stream in, same
// arrival set out, or the jump arithmetic is wrong.
func directGateArrivals(r *fastrand.Rand, n int, lambda, expNegLambda float64, emit func(i, k int)) {
	if n <= 0 || lambda <= 0 {
		return
	}
	invLambda := 1 / lambda
	gap := -1 // subscribers still to skip before the next arrival; -1 = undrawn
	for i := 0; i < n; i++ {
		if gap < 0 {
			g := -math.Log(r.OpenFloat64()) * invLambda
			if g >= float64(n-i) {
				return
			}
			gap = int(g)
		}
		if gap == 0 {
			emit(i, r.PoissonGE1(lambda, expNegLambda))
			gap = -1
		} else {
			gap--
		}
	}
}

// TestSkipSamplingMatchesDirectGating is the skip-sampling equivalence
// differential: over a sweep of population sizes and per-subscriber
// rates, the geometric decoder and the per-subscriber reference walk fed
// the same per-lane stream must emit identical arrival sets and leave
// the stream in the same state. A statistical guard then checks the
// decoded arrival frequency against the analytic p = 1 - exp(-lambda),
// so the pair cannot drift together into a wrong distribution.
func TestSkipSamplingMatchesDirectGating(t *testing.T) {
	type arrival struct{ i, k int }
	for _, n := range []int{0, 1, 7, 100, 4096} {
		for _, lambda := range []float64{0, 0.01, 0.2, 1.0, 2.5} {
			expNeg := math.Exp(-lambda)
			fa := fastrand.Rand(uint64(n)*0x9E37 + math.Float64bits(lambda))
			fb := fa
			var fast, direct []arrival
			var arrivals, flows int
			const trials = 200
			for trial := 0; trial < trials; trial++ {
				fast, direct = fast[:0], direct[:0]
				traffic.ForEachArrival(&fa, n, lambda, expNeg, func(i, k int) {
					fast = append(fast, arrival{i, k})
				})
				directGateArrivals(&fb, n, lambda, expNeg, func(i, k int) {
					direct = append(direct, arrival{i, k})
				})
				if !reflect.DeepEqual(fast, direct) {
					t.Fatalf("n=%d lambda=%g trial %d: arrival sets diverge\nskip-sampled %v\ndirect-gated %v",
						n, lambda, trial, fast, direct)
				}
				if fa != fb {
					t.Fatalf("n=%d lambda=%g trial %d: stream states diverge after identical arrival sets", n, lambda, trial)
				}
				for _, a := range fast {
					if a.i < 0 || a.i >= n {
						t.Fatalf("n=%d lambda=%g: arrival position %d out of range", n, lambda, a.i)
					}
					if a.k < 1 {
						t.Fatalf("n=%d lambda=%g: arrival with %d flows (conditioned >= 1)", n, lambda, a.k)
					}
					arrivals++
					flows += a.k
				}
			}
			if n == 0 || lambda == 0 {
				if arrivals != 0 {
					t.Fatalf("n=%d lambda=%g: %d arrivals from an empty process", n, lambda, arrivals)
				}
				continue
			}
			// Mean arrivals per trial is Binomial(n, p): check within 6
			// sigma so the test never flakes but a broken decoder (wrong
			// p, off-by-one jumps) still trips it.
			p := 1 - expNeg
			want := float64(trials) * float64(n) * p
			sigma := math.Sqrt(float64(trials) * float64(n) * p * (1 - p))
			if diff := math.Abs(float64(arrivals) - want); diff > 6*sigma+1 {
				t.Errorf("n=%d lambda=%g: %d arrivals over %d trials, want %.1f ± %.1f",
					n, lambda, arrivals, trials, want, 6*sigma)
			}
			// Flow volume: unconditional mean is n·lambda per trial.
			wantFlows := float64(trials) * float64(n) * lambda
			if n >= 100 && math.Abs(float64(flows)-wantFlows) > 0.1*wantFlows {
				t.Errorf("n=%d lambda=%g: %d flows over %d trials, want ~%.0f",
					n, lambda, flows, trials, wantFlows)
			}
		}
	}
}

// multiLaneSpecs builds realms whose pools actually split into several
// lanes — registry worlds are often single-IP, which clamps to one
// shard and would not exercise cross-lane scheduling.
func multiLaneSpecs() []traffic.RealmSpec {
	mkIPs := func(first string, n int) []netaddr.Addr {
		base := netaddr.MustParseAddr(first)
		ips := make([]netaddr.Addr, n)
		for i := range ips {
			ips[i] = base + netaddr.Addr(i)
		}
		return ips
	}
	return []traffic.RealmSpec{
		{
			ID: "multi/sym-random",
			NAT: nat.Config{
				Type:        nat.Symmetric,
				PortAlloc:   nat.Random,
				Pooling:     nat.Paired,
				ExternalIPs: mkIPs("198.51.100.1", 4),
				UDPTimeout:  40 * time.Second,
				PortLo:      1024,
				PortHi:      4095,
				Seed:        11,
			},
			Subscribers: 600,
		},
		{
			ID:       "multi/cone-seq-quota",
			Cellular: true,
			NAT: nat.Config{
				Type:                   nat.PortRestricted,
				PortAlloc:              nat.Sequential,
				Pooling:                nat.Paired,
				ExternalIPs:            mkIPs("203.0.113.16", 5),
				UDPTimeout:             25 * time.Second,
				PortQuotaPerSubscriber: 6,
				PortLo:                 1024,
				PortHi:                 2047,
				Seed:                   12,
			},
			Subscribers: 400,
		},
		{
			ID: "multi/chunk",
			NAT: nat.Config{
				Type:        nat.Symmetric,
				PortAlloc:   nat.RandomChunk,
				ChunkSize:   256,
				Pooling:     nat.Paired,
				ExternalIPs: mkIPs("192.0.2.32", 3),
				UDPTimeout:  30 * time.Second,
				PortLo:      1024,
				PortHi:      8191,
				Seed:        13,
			},
			Subscribers: 300,
		},
	}
}

// TestShardedMultiLaneInvariance drives synthetic multi-lane realms at
// every meaningful shard count (1 through beyond the pool size, which
// clamps) and across worker counts, asserting identical Results and
// digests throughout.
func TestShardedMultiLaneInvariance(t *testing.T) {
	profile := traffic.Profile{
		Ticks:         40,
		DayTicks:      24,
		TickStep:      15 * time.Second,
		DiurnalAmp:    0.6,
		HeavyFrac:     0.05,
		LightFrac:     0.5,
		FlowsPerTick:  0.8,
		HeavyMult:     6,
		FlowHoldTicks: 3,
	}
	specs := multiLaneSpecs()

	baseRes, baseDig := runShardedDiff(profile, 99, specs, 1, 1)
	if baseRes.Created == 0 {
		t.Fatal("baseline sharded run drove no flows")
	}
	if len(baseDig) != len(specs) {
		t.Fatalf("observer collected %d digests, want %d", len(baseDig), len(specs))
	}
	for _, tc := range []struct{ workers, shards int }{
		{1, 2}, {1, 3}, {1, 5}, {1, 16}, {3, 4}, {4, 2},
	} {
		res, dig := runShardedDiff(profile, 99, specs, tc.workers, tc.shards)
		if !reflect.DeepEqual(baseRes, res) {
			t.Errorf("workers=%d shards=%d: Result differs from shards=1 baseline:\n%+v\nvs\n%+v",
				tc.workers, tc.shards, baseRes, res)
		}
		if !reflect.DeepEqual(baseDig, dig) {
			t.Errorf("workers=%d shards=%d: digests differ from shards=1 baseline:\n%v\nvs\n%v",
				tc.workers, tc.shards, baseDig, dig)
		}
	}
}
