// Command cgnsim is the end-to-end reproduction driver: it generates a
// synthetic Internet with ground-truth CGN deployments, runs the
// BitTorrent DHT crawl and the Netalyzr measurement campaign against it,
// executes both detection pipelines and every property analysis, and
// prints all of the paper's tables and figures (E01..E18, plus the
// adversarial E19, the longitudinal E21 and the fault-injection E22)
// and the ground-truth scoring.
//
// Usage:
//
//	cgnsim [-scenario paper|small|large|...] [-seed N] [-experiment E08] [-truth]
//
// Sweep mode runs the campaign over a grid of scenarios and replicate
// seeds on a worker pool and aggregates the ground-truth scores into
// precision/recall distributions with confidence intervals:
//
//	cgnsim -sweep [-scenarios small,nat444-dense] [-replicates 8] [-workers 4] [-seed N] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"cgn/internal/campaign"
	"cgn/internal/internet"
	"cgn/internal/nat"
	"cgn/internal/report"
)

func main() {
	scenario := flag.String("scenario", "paper", "world scenario: "+strings.Join(internet.Names(), ", "))
	seed := flag.Int64("seed", 1, "world generation seed (sweep mode: base seed of the replicates)")
	experiment := flag.String("experiment", "", "render a single experiment (e.g. E08); empty renders all")
	truth := flag.Bool("truth", false, "also dump per-AS ground truth")
	portSpan := flag.Int("portspan", 0, "narrow every CGN realm to this many external ports (0 keeps the scenario's setting)")
	portQuota := flag.Int("portquota", 0, "per-subscriber CGN port quota (0 keeps the scenario's setting)")
	attackFrac := flag.Float64("attackers", -1, "E19 override: fraction of subscribers acting as port-flood attackers (negative keeps the scenario's setting)")
	attackFlows := flag.Float64("attack-flows", -1, "E19 override: flood flows per attacker per tick (negative keeps the scenario's setting)")
	scanProbes := flag.Float64("scan-probes", -1, "E19 override: external scanner probes per pool IP per tick (negative keeps the scenario's setting)")
	allocRate := flag.Float64("alloc-rate", -1, "defense override: per-subscriber allocation token-bucket rate in tokens/sec (negative keeps the scenario's setting, 0 disarms)")
	allocBurst := flag.Int("alloc-burst", -1, "defense override: token-bucket burst capacity (negative keeps the scenario's setting)")
	evict := flag.String("evict", "", "defense override: CGN eviction policy, none or oldest-idle (empty keeps the scenario's setting)")
	sweep := flag.Bool("sweep", false, "run a multi-world sweep instead of a single campaign")
	scenarios := flag.String("scenarios", "small", "sweep mode: comma-separated scenario names")
	replicates := flag.Int("replicates", 8, "sweep mode: replicate worlds (seeds) per scenario")
	workers := flag.Int("workers", runtime.NumCPU(), "sweep mode: concurrent worlds")
	verbose := flag.Bool("v", false, "sweep mode: print per-world results as they finish")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	flag.Parse()

	// Profiles must be flushed on every exit path (including the
	// os.Exit below), so stopping is explicit rather than deferred.
	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cgnsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cgnsim: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	stopProfiles := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cgnsim: -cpuprofile: %v\n", err)
			}
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cgnsim: -memprofile: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cgnsim: -memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cgnsim: -memprofile: %v\n", err)
			}
		}
	}

	if *sweep {
		code := runSweep(*scenarios, *replicates, *workers, *seed, *portSpan, *portQuota, *verbose)
		stopProfiles()
		os.Exit(code)
	}
	defer stopProfiles()

	sc, err := internet.Lookup(*scenario)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cgnsim: %v\n", err)
		stopProfiles()
		os.Exit(2)
	}
	sc.Seed = *seed
	sc.ApplyPortOverrides(*portSpan, *portQuota)
	if *attackFrac >= 0 {
		sc.Traffic.AttackerFrac = *attackFrac
	}
	if *attackFlows >= 0 {
		sc.Traffic.AttackerFlowsPerTick = *attackFlows
	}
	if *scanProbes >= 0 {
		sc.Traffic.ScannerProbesPerTick = *scanProbes
	}
	if *allocRate >= 0 {
		sc.CGNAllocRatePerSec = *allocRate
	}
	if *allocBurst >= 0 {
		sc.CGNAllocBurst = *allocBurst
	}
	switch *evict {
	case "":
	case "none":
		sc.CGNEviction = nat.EvictNone
	case "oldest-idle":
		sc.CGNEviction = nat.EvictOldestIdle
	default:
		fmt.Fprintf(os.Stderr, "cgnsim: -evict %q: want none or oldest-idle\n", *evict)
		stopProfiles()
		os.Exit(2)
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "cgnsim: %v\n", err)
		stopProfiles()
		os.Exit(2)
	}

	w := internet.Build(sc)
	fmt.Printf("world: %d ASes, %d BitTorrent peers, %d Netalyzr vantage points, %d true CGN ASes\n\n",
		w.DB.Len(), len(w.Swarm.Peers), w.NumClients(), len(w.CGNTruth()))

	b := report.Collect(w)
	if *experiment == "" {
		fmt.Println(b.All())
	} else {
		out, err := renderOne(b, strings.ToUpper(*experiment))
		if err != nil {
			fmt.Fprintf(os.Stderr, "cgnsim: %v\n", err)
			stopProfiles()
			os.Exit(2)
		}
		fmt.Println(out)
	}

	if *truth {
		writeTruth(os.Stdout, w.Truth)
	}
}

// writeTruth prints the ground truth of every CGN-deploying AS in
// ascending ASN order, so the same seed always prints the same bytes.
func writeTruth(out io.Writer, truth map[uint32]*internet.Truth) {
	fmt.Fprintln(out, "Ground truth:")
	for _, asn := range slices.Sorted(maps.Keys(truth)) {
		if t := truth[asn]; t.CGN {
			fmt.Fprintf(out, "  AS%d cellular=%v realms=%d ranges=%v allocs=%v types=%v timeouts=%v\n",
				asn, t.Cellular, t.Realms, t.Ranges, t.PortAllocs, t.MappingTypes, t.Timeouts)
		}
	}
}

// runSweep drives the campaign engine and prints the aggregate table.
func runSweep(scenarioList string, replicates, workers int, baseSeed int64, portSpan, portQuota int, verbose bool) int {
	cfg := campaign.Config{
		Scenarios:  strings.Split(scenarioList, ","),
		Replicates: replicates,
		BaseSeed:   baseSeed,
		Workers:    workers,
		PortSpan:   portSpan,
		PortQuota:  portQuota,
	}
	if verbose {
		cfg.OnWorld = func(r campaign.WorldResult) {
			u := r.Scores["BitTorrent ∪ Netalyzr"]
			fmt.Fprintf(os.Stderr, "  %s seed=%d: union p=%.2f r=%.2f (%v, digest %s)\n",
				r.Scenario, r.Seed, u.Precision(), u.Recall(), r.Elapsed.Round(1e6), r.Digest[:12])
		}
	}
	sw, err := campaign.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cgnsim: %v\n", err)
		return 2
	}
	fmt.Printf("sweep: %d worlds (%d scenarios x %d replicates) on %d workers in %v\n\n",
		len(sw.Worlds), len(cfg.Scenarios), cfg.Replicates, cfg.Workers, sw.Elapsed.Round(1e6))
	fmt.Println(campaign.Render(campaign.Aggregate(sw.Worlds)))
	return 0
}

func renderOne(b *report.Bundle, name string) (string, error) {
	if name == "SCORES" {
		return b.Scores(), nil
	}
	for _, e := range report.Experiments {
		if e.ID == name {
			return e.Render(b), nil
		}
	}
	return "", fmt.Errorf("unknown experiment %q (E01..E19, E21, E22 or scores)", name)
}
