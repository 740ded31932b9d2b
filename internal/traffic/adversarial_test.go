package traffic

import (
	"reflect"
	"testing"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// stressRealms builds realms with a deliberately tight port space so a
// flooder population can actually exhaust it within a short test run:
// one external IP (one lane), span ports per protocol.
func stressRealms(n, subs int, span uint16, defend func(*nat.Config)) []RealmSpec {
	realms := make([]RealmSpec, n)
	for i := range realms {
		cfg := nat.Config{
			Type:        nat.Symmetric,
			PortAlloc:   nat.Random,
			Pooling:     nat.Paired,
			ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1") + netaddr.Addr(i)},
			PortLo:      1024,
			PortHi:      1024 + span - 1,
			UDPTimeout:  65 * time.Second,
			Seed:        int64(i + 1),
		}
		if defend != nil {
			defend(&cfg)
		}
		realms[i] = RealmSpec{ID: "stress-realm", NAT: cfg, Subscribers: subs}
	}
	return realms
}

// attackProfile floods a quarter of the population at 10 flows/tick.
// HeavyFrac is zeroed: a rate-based defense can only separate attackers
// from legitimate users when the legitimate rate ceiling sits below the
// flood rate, and 12x heavy hitters straddle it.
func attackProfile() Profile {
	p := weekProfile()
	p.Ticks = 96
	p.HeavyFrac = 0
	p.AttackerFrac = 0.25
	p.AttackerFlowsPerTick = 10
	p.ScannerProbesPerTick = 2
	return p
}

// TestAdversarialZeroWhenDisabled is the zero-attacker property: a
// profile without adversarial knobs yields an Adversarial block that is
// exactly the zero value — every collateral metric zero. (Byte-identity of the rest of the Result to pre-adversarial
// builds is pinned separately by the report goldens.)
func TestAdversarialZeroWhenDisabled(t *testing.T) {
	res := Run(Config{Seed: 42, Profile: weekProfile(), Realms: testRealms(2, 24)})
	if res.Adversarial != (AdversarialStats{}) {
		t.Fatalf("adversarial stats nonzero without attackers: %+v", res.Adversarial)
	}
	if got := res.ByClass[0].Subscribers + res.ByClass[1].Subscribers + res.ByClass[2].Subscribers; got != res.Subscribers {
		t.Fatalf("class census %d != population %d without attackers", got, res.Subscribers)
	}
}

// TestAdversarialFloodCollateral is E19's core claim at engine level: an
// undefended flood starves legitimate subscribers, and the per-subscriber
// token-bucket rate limiter claws the damage back.
func TestAdversarialFloodCollateral(t *testing.T) {
	p := attackProfile()
	undefended := Run(Config{Seed: 11, Profile: p, Realms: stressRealms(2, 16, 96, nil)})
	a := undefended.Adversarial
	if !a.Enabled || a.Attackers != 2*4 {
		t.Fatalf("attackers not designated: %+v", a)
	}
	if a.AttackerAttempts == 0 || a.LegitAttempts == 0 {
		t.Fatalf("no load offered: %+v", a)
	}
	if a.LegitFailures == 0 || a.NoPorts == 0 {
		t.Fatalf("undefended flood caused no legit collateral: %+v", a)
	}
	if a.AttackerPorts.P99 <= undefended.All.P99 {
		t.Errorf("attacker p99 %d not above legit p99 %d", a.AttackerPorts.P99, undefended.All.P99)
	}
	if a.ScannerProbes == 0 || a.ScannerBlocked == 0 {
		t.Errorf("scanner idle: probes=%d blocked=%d", a.ScannerProbes, a.ScannerBlocked)
	}

	// 0.06/s ≈ 1.8 allocations/tick: above the legit median peak
	// (0.8 × 1.7 diurnal), far under the 10/tick flood — the rate
	// separation the defense needs to discriminate.
	defended := Run(Config{Seed: 11, Profile: p, Realms: stressRealms(2, 16, 96, func(c *nat.Config) {
		c.AllocRatePerSec = 0.06
		c.AllocBurst = 8
	})})
	d := defended.Adversarial
	if d.RateLimited == 0 {
		t.Fatalf("token bucket never fired: %+v", d)
	}
	if d.LegitFailRate() >= a.LegitFailRate() {
		t.Errorf("defense did not reduce legit failure rate: %.4f (defended) vs %.4f (undefended)",
			d.LegitFailRate(), a.LegitFailRate())
	}
	if d.AttackerFailRate() <= a.AttackerFailRate() {
		t.Errorf("defense did not starve attackers: %.4f (defended) vs %.4f (undefended)",
			d.AttackerFailRate(), a.AttackerFailRate())
	}
}

// TestAdversarialEviction: under EvictOldestIdle the NAT reclaims idle
// (flood-parked) mappings instead of refusing, so evictions replace a
// chunk of the hard failures.
func TestAdversarialEviction(t *testing.T) {
	p := attackProfile()
	res := Run(Config{Seed: 13, Profile: p, Realms: stressRealms(1, 16, 96, func(c *nat.Config) {
		c.Eviction = nat.EvictOldestIdle
	})})
	if a := res.Adversarial; a.Evictions == 0 {
		t.Fatalf("eviction policy never evicted: %+v", a)
	}
}

// adversarialBaselineSHA pins TestAdversarialShardedInvariance's
// reference run (its Result and final-tick digests, as BaselineSHA
// hashes them) across kernel rewrites: eviction and the rate limit make
// refreshes fail, so it depends on the order the refresh walk visits
// flows.
const adversarialBaselineSHA = "f86f2cfbd3f8062502aac2ab793e0965b64ac760bf559b3db3bc5d6ee5973c76"

// TestAdversarialShardedInvariance: with flood, scanner and both defenses
// live, the engine's Result stays byte-identical at any
// workers × shards split, and the reference run matches
// adversarialBaselineSHA with every tick audited (RunAudited) — and
// under -race this is also the concurrency exercise over the
// token-bucket and eviction paths.
func TestAdversarialShardedInvariance(t *testing.T) {
	p := attackProfile()
	realms := func() []RealmSpec {
		r := stressRealms(3, 24, 128, func(c *nat.Config) {
			c.AllocRatePerSec = 0.02
			c.AllocBurst = 8
			c.Eviction = nat.EvictOldestIdle
		})
		// A multi-lane pool so shard counts above 1 mean something.
		for i := range r {
			base := r[i].NAT.ExternalIPs[0]
			r[i].NAT.ExternalIPs = []netaddr.Addr{base, base + 64, base + 128, base + 192}
		}
		return r
	}
	var digests []string
	ref, err := RunAudited(Config{Seed: 17, Profile: p, Realms: realms(), Shards: 1, Workers: 1,
		Observer: func(_ RealmSpec, tick int, _ time.Time, n nat.View) {
			if tick == p.Ticks-1 {
				digests = append(digests, n.StateDigest())
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Adversarial.Enabled || ref.Adversarial.AttackerAttempts == 0 {
		t.Fatalf("reference run offered no adversarial load: %+v", ref.Adversarial)
	}
	if len(digests) != 3 {
		t.Fatalf("observer saw %d final ticks, want 3", len(digests))
	}
	if got := BaselineSHA(ref, digests); got != adversarialBaselineSHA {
		t.Errorf("reference run hashes to %s, want %s", got, adversarialBaselineSHA)
	}
	for _, c := range []struct{ workers, shards int }{{1, 3}, {4, 2}, {3, 4}} {
		got := Run(Config{Seed: 17, Profile: p, Realms: realms(), Shards: c.shards, Workers: c.workers})
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d shards=%d: result differs from workers=1 shards=1\nref: %+v\ngot: %+v",
				c.workers, c.shards, ref.Adversarial, got.Adversarial)
		}
	}
}
