package internet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cgn/internal/internet"
	"cgn/internal/netaddr"
	"cgn/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite the campaign digests under testdata from the current engine")

// campaignDigest runs the full measurement campaign (DHT crawl plus
// Netalyzr sessions — every packet type the reproduction sends) over a
// world and digests everything forwarding influences: the crawl dataset,
// the sessions, the network-wide metric counters and the complete NAT
// state of every device. The downstream analyses are pure functions of
// these inputs, so two worlds with equal digests produce byte-identical
// reports.
func campaignDigest(w *internet.World) string {
	ds := w.RunCrawl(internet.DefaultCrawlOptions())
	sessions := w.RunNetalyzr()

	h := sha256.New()
	// %+v prints maps in sorted key order and every type below is a
	// value type, so the rendering is deterministic.
	fmt.Fprintf(h, "crawl %+v\n", *ds)
	fmt.Fprintf(h, "sessions %+v\n", sessions)
	stateDigestInto(h, w)
	return hex.EncodeToString(h.Sum(nil))
}

// probeDigest exercises forwarding directly, without the (expensive)
// full campaign: from a deterministic sample of hosts across every realm
// it sends full-TTL packets, sweeps TTLs across the NAT boundaries, and
// records traces toward the echo server, then digests every Result,
// every trace and the complete network and NAT state.
func probeDigest(w *internet.World) string {
	srv := w.Servers.Config
	echo := netaddr.EndpointOf(srv.EchoAddr, 7)

	h := sha256.New()
	probe := func(host *simnet.Host) {
		if host == nil {
			return
		}
		res := host.Send(netaddr.UDP, 41000, echo, nil)
		fmt.Fprintf(h, "send %s %+v\n", host.Name(), res)
		for _, ttl := range []int{1, 3, 5, 9} {
			res := host.SendTTL(netaddr.UDP, 41001, echo, ttl, nil)
			fmt.Fprintf(h, "ttl %s %d %+v\n", host.Name(), ttl, res)
		}
		steps, res := host.Network().TracePath(host, netaddr.UDP, 41002, echo)
		fmt.Fprintf(h, "trace %s %v %+v\n", host.Name(), steps, res)
	}
	realms := w.Net.Realms()
	for i, r := range realms {
		// Sample at most ~128 realms evenly so heavy worlds stay cheap.
		if len(realms) > 128 && i%(len(realms)/128+1) != 0 {
			continue
		}
		if hosts := r.Hosts(); len(hosts) > 0 {
			probe(hosts[len(hosts)-1])
		}
	}
	probe(w.CrawlerHost)
	stateDigestInto(h, w)
	return hex.EncodeToString(h.Sum(nil))
}

// stateDigestInto writes the network metrics and every NAT's state
// digest into h.
func stateDigestInto(h interface{ Write([]byte) (int, error) }, w *internet.World) {
	fmt.Fprintf(h, "netmetrics %+v\n", w.Net.Metrics.Snapshot())
	for _, d := range w.Net.Devices() {
		fmt.Fprintf(h, "dev %s %s %+v\n", d.Name, d.NAT.StateDigest(), d.NAT.Metrics.Snapshot())
	}
}

// TestCampaignDigestsGolden pins forwarding across every registry
// scenario: one world per scenario at seed 7, digested against
// testdata/campaign_digests.txt. The small-class scenarios digest the
// complete measurement campaign; the heavy worlds (paper, large) digest
// a deterministic forwarding probe matrix instead, which covers the same
// packet classes at a fraction of the cost. large additionally sits
// behind -short. Regenerate with
// `go test ./internal/internet -run TestCampaignDigestsGolden -update`
// only for a deliberate, reviewed re-baseline.
func TestCampaignDigestsGolden(t *testing.T) {
	path := filepath.Join("testdata", "campaign_digests.txt")
	want := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if name, digest, ok := strings.Cut(line, " "); ok {
				want[name] = digest
			}
		}
	} else if !*updateGolden {
		t.Fatal(err)
	}
	var mu sync.Mutex
	if *updateGolden {
		// Cleanups run once every parallel subtest has finished. Skipped
		// scenarios keep their previous digest.
		t.Cleanup(func() {
			var b strings.Builder
			for _, name := range internet.Names() {
				if d, ok := want[name]; ok {
					fmt.Fprintf(&b, "%s %s\n", name, d)
				}
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	probeOnly := map[string]bool{"paper": true, "large": true}
	for _, name := range internet.Names() {
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "large" {
				t.Skip("skipping the large world in -short mode")
			}
			t.Parallel()
			sc, err := internet.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed = 7
			digest := campaignDigest
			if probeOnly[name] {
				digest = probeDigest
			}
			got := digest(internet.Build(sc))
			mu.Lock()
			defer mu.Unlock()
			if *updateGolden {
				want[name] = got
				return
			}
			if got != want[name] {
				t.Errorf("scenario %s: digest drifted from %s\n got: %s\nwant: %s", name, path, got, want[name])
			}
		})
	}
}
