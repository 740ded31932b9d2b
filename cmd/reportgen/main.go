// Command reportgen regenerates EXPERIMENTS.md: it runs the full campaign
// on the paper scenario and records, for every experiment, the measured
// output alongside the paper's reference values, so the repository's
// claim of reproduction stays checkable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cgn/internal/internet"
	"cgn/internal/report"
)

// paperNotes pairs each experiment with the values the paper reports, for
// side-by-side comparison in EXPERIMENTS.md.
var paperNotes = map[string]string{
	"E01": "Paper: 38% deployed / 12% considering / 50% no plans; IPv6 32/35/11/22; >40% face scarcity; 3 ISPs report internal-space scarcity.",
	"E02": "Paper: 21.5M queried (15.5M IPs, 18.8K ASes), 192.0M learned (62.1M IPs, 26.7K ASes), 107.7M ping-responded. Scaled world: absolute counts shrink ~3 orders of magnitude; the queried<learned and responded≈56% shapes carry.",
	"E03": "Paper (leaking side): 192X 162.2K IPs/4.1K ASes, 172X 33.9K/1.0K, 10X 194.4K/2.2K, 100X 165.8K/723. Shape: 10X and 100X dominate internal peers; 192X leaks exist but stay isolated.",
	"E04": "Paper Fig 3: AS7922 (Comcast) isolated 1:1 leaks vs AS12874 (FastWEB) dense clusters. Shape: non-CGN exemplar has 1-leaker clusters; CGN exemplar has >=5x5.",
	"E05": "Paper Fig 4: 192X clusters small; 10X/100X clusters large; detection boundary 5x5; ~10% of probed ASes CGN-positive.",
	"E06": "Paper Table 4: cellular IPdev 58.7% 10X / 17.3% 100X / 12.5% unrouted / 5.7% match; non-cell IPdev 92.4% 192X; IPcpe 83% routed match, 8.9% 192X.",
	"E07": "Paper: top-10 filter removes over half of ambiguous sessions, 7.9% of sessions remain candidates, ~15% of covered ASes detected.",
	"E08": "Paper Table 5: BT 5.2% routed covered / 9.4% positive; union 17.1% (PBL) and 18.0% (APNIC) positive among eyeballs; cellular 92.6-94.2% positive.",
	"E09": "Paper Fig 6: APNIC and RIPE show >2x the eyeball CGN penetration of other regions; AFRINIC lowest; cellular high everywhere, AFRINIC ~67%.",
	"E10": "Paper Fig 7: 10X most common, then 100X; ~20% of ASes use multiple ranges; several ASes (TELUS, Sprint, Rogers, T-Mobile, H3G) use routable space internally.",
	"E11": "Paper Fig 8: OS ephemeral ports band vs full-space CGN renumbering; 92% of non-CGN sessions preserve ports; AS12978 allocates 4K chunks.",
	"E12": "Paper Fig 9/Table 6: non-cellular 41.2/22.2/35.6 preservation/sequential/random, cellular 27.9/26.0/44.7; 17 chunk ASes (9+8); 21% arbitrary pooling.",
	"E13": "Paper Table 7: 67.6% detected+mismatch, 30.9% mismatch without expiry, <0.5% stateful without translation.",
	"E14": "Paper Fig 11: 92% of NATs in no-CGN ASes at hop 1; CGNs 2-5 hops (64% non-cellular, 73% cellular); 10% of cellular ASes >=6 hops; max observed 18.",
	"E15": "Paper Fig 12: cellular CGN median 65s, non-cellular 35s, CPE mode 65s; 74% expire within 60s; range 10-200s.",
	"E16": "Paper Fig 13: <2% of CPE sessions symmetric; 11% of non-cellular CGN ASes symmetric-only; cellular bimodal 40% symmetric / 20% full cone.",
	"E17": "Beyond the paper: §6.2 derives users-per-IP vs chunk-size analytically (64 users per IP at 1K chunks); the simulator measures utilization and allocation failures directly, per customers-per-external-IP band.",
	"E18": "Paper §6.2 / Figure 8: per-subscriber concurrent port usage sampled over a week of flow data — the max rides far above the 99th percentile, which rides far above the median. The traffic engine reproduces the ordering under diurnal flow churn; \"Tracking the Big NAT\" motivates the short-timeout churn regime.",
	"E19": "Beyond the paper: §6 assumes cooperative subscribers, but ReDAN (PAPERS.md) demonstrates remote DoS against NAT networks via mapping-table exhaustion. The traffic engine drives adversarial subscribers that flood port allocations plus external scanners probing the pool, measures the collateral allocation-failure rate on legitimate subscribers, and scores a per-subscriber token-bucket limiter and an evict-oldest-idle policy as defenses (registry scenarios flood-attack / flood-defended). The paper scenario carries no adversarial load, so the matrix reports disabled here; `cgnsim -scenario flood-attack -experiment E19` runs it.",
	"E21": "Beyond the paper: the paper's detections are snapshots of a fleet that evolves — Mandalari et al. (\"Tracking the Big NAT across Europe and the U.S.\") track deployments over months and find churn. The fleet engine scripts months of enables/disables/re-provisionings and scores a windowed observer: recall climbs with observation duration because late-onset deployments and sparse vantage sampling only accumulate evidence over weeks.",
	"E22": "Beyond the paper: §7 notes carriers juggle scarce pool space, and Mandalari et al. observe deployments dropping mapping state mid-study — real CGNs fail and restart. The fault engine takes a scheduled fraction of the pool dark mid-run (survivor lanes absorb failover deterministically), reboots a whole engine losing all mappings, and measures the legitimate allocation-failure rate before, during, and after each fault: degradation scales with severity and the failure rate returns under a baseline-derived threshold once capacity is restored.",
}

// generate runs the full campaign and assembles the EXPERIMENTS.md
// document. The golden-file test regenerates it for (paper, 1) and diffs
// against the committed file, so experiment drift can never land
// silently; keep everything that ends up in the document inside this
// function.
func generate(scenario string, seed int64) (string, *report.Bundle, error) {
	sc, err := internet.Lookup(scenario)
	if err != nil {
		return "", nil, err
	}
	sc.Seed = seed

	w := internet.Build(sc)
	b := report.Collect(w)

	var sb strings.Builder
	sb.WriteString("# EXPERIMENTS — paper vs. measured\n\n")
	sb.WriteString("Generated by `go run ./cmd/reportgen`")
	fmt.Fprintf(&sb, " (scenario=%s, seed=%d: %d ASes, %d BitTorrent peers, %d Netalyzr sessions, %d true CGN ASes).\n\n",
		scenario, seed, w.DB.Len(), len(w.Swarm.Peers), len(b.Sessions), len(w.CGNTruth()))
	sb.WriteString("The simulated world is ~3 orders of magnitude smaller than the real\n")
	sb.WriteString("Internet, so absolute counts are not comparable; the claims under test\n")
	sb.WriteString("are the *shapes*: who detects what, which categories dominate, where\n")
	sb.WriteString("distributions sit. Each section quotes the paper's numbers, then the\n")
	sb.WriteString("measured output of this repository's pipeline.\n\n")

	for _, e := range report.Experiments {
		fmt.Fprintf(&sb, "## %s\n\n", e.ID)
		fmt.Fprintf(&sb, "%s\n\n", paperNotes[e.ID])
		fmt.Fprintf(&sb, "```\n%s```\n\n", e.Render(b))
	}
	sb.WriteString("## Ground truth scoring\n\n")
	sb.WriteString("The paper validated detections manually; the simulator knows the truth:\n\n")
	fmt.Fprintf(&sb, "```\n%s```\n", b.Scores())
	return sb.String(), b, nil
}

func main() {
	out := flag.String("o", "EXPERIMENTS.md", "output path")
	scenario := flag.String("scenario", "paper", "world scenario: "+strings.Join(internet.Names(), ", "))
	seed := flag.Int64("seed", 1, "world generation seed")
	csvDir := flag.String("csv", "", "also write per-figure CSV data series into this directory")
	flag.Parse()

	doc, b, err := generate(*scenario, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reportgen: %v\n", err)
		os.Exit(2)
	}
	if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "reportgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *csvDir != "" {
		paths, err := b.WriteCSVs(*csvDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reportgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d CSV series to %s\n", len(paths), *csvDir)
	}
}
