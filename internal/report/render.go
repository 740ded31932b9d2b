package report

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"cgn/internal/asdb"
	"cgn/internal/crawler"
	"cgn/internal/detect"
	"cgn/internal/netaddr"
	"cgn/internal/props"
	"cgn/internal/stats"
	"cgn/internal/stun"
	"cgn/internal/survey"
)

func table(fill func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fill(w)
	w.Flush()
	return sb.String()
}

func pct(n, total int) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}

// E01 renders Figure 1: survey CGN and IPv6 deployment shares.
func (b *Bundle) E01() string {
	a := b.Survey
	var sb strings.Builder
	sb.WriteString("E01 / Figure 1 — ISP survey (N=75)\n")
	sb.WriteString("(a) Carrier-Grade NAT deployment\n")
	for _, s := range []survey.CGNStatus{survey.CGNDeployed, survey.CGNConsidering, survey.CGNNoPlans} {
		sb.WriteString(fmt.Sprintf("  %-26s %3d  %s  %s\n", s, a.CGN[s], pct(a.CGN[s], a.N), stats.Bar(a.CGN.Share(s), 30)))
	}
	sb.WriteString("(b) IPv6 deployment\n")
	for _, s := range []survey.IPv6Status{survey.IPv6MostSubscribers, survey.IPv6SomeSubscribers, survey.IPv6PlansSoon, survey.IPv6NoPlans} {
		sb.WriteString(fmt.Sprintf("  %-26s %3d  %s  %s\n", s, a.IPv6[s], pct(a.IPv6[s], a.N), stats.Bar(a.IPv6.Share(s), 30)))
	}
	sb.WriteString(fmt.Sprintf("§2 scarcity: %s face scarcity, %s looming, %d report internal-space scarcity\n",
		pct(a.Scarcity, a.N), pct(a.Looming, a.N), a.InternalSc))
	sb.WriteString(fmt.Sprintf("§2 market: %d bought, %d considered; concerns: price %s, pollution %s, ownership %s\n",
		a.Bought, a.Considered, pct(a.ConcernPrice, a.N), pct(a.ConcernPollution, a.N), pct(a.ConcernOwnership, a.N)))
	return sb.String()
}

// E02 renders Table 2: crawl volume.
func (b *Bundle) E02() string {
	ds := b.Crawl
	learnedASes := map[uint32]bool{}
	for _, l := range ds.Leaks {
		learnedASes[l.LeakerASN] = true
	}
	return "E02 / Table 2 — BitTorrent DHT crawl\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "\tPeers\tUnique IPs\tASes")
		fmt.Fprintf(w, "Queried\t%d\t%d\t%d\n", len(ds.Queried), crawler.UniqueIPs(ds.Queried), ds.ASes())
		fmt.Fprintf(w, "Learned\t%d\t%d\t\n", len(ds.Learned), crawler.UniqueIPs(ds.Learned))
		fmt.Fprintf(w, "Ping-responded\t%d\t%d\t\n", len(ds.PingResponded), crawler.UniqueIPs(ds.PingResponded))
	})
}

// rangeRow is one reserved range's row of Table 3: its distinct
// internal peers and their IPs, and the distinct peers that leaked them,
// their IPs and their ASes.
type rangeRow struct {
	Range                     netaddr.Range
	Internal, InternalIPs     int
	Leaking, LeakingIPs, ASes int
}

// rangeRows counts the crawl's leaks per reserved range, in
// netaddr.ReservedRanges order. E03 renders the rows and
// e03_ranges.csv exports them.
func (b *Bundle) rangeRows() []rangeRow {
	type sets struct {
		internal, leaking       map[crawler.PeerKey]bool
		internalIPs, leakingIPs map[netaddr.Addr]bool
		ases                    map[uint32]bool
	}
	per := map[netaddr.Range]*sets{}
	for _, r := range netaddr.ReservedRanges {
		per[r] = &sets{
			internal: map[crawler.PeerKey]bool{}, leaking: map[crawler.PeerKey]bool{},
			internalIPs: map[netaddr.Addr]bool{}, leakingIPs: map[netaddr.Addr]bool{},
			ases: map[uint32]bool{},
		}
	}
	for _, l := range b.Crawl.Leaks {
		st, ok := per[netaddr.ClassifyRange(l.Internal.EP.Addr)]
		if !ok {
			continue
		}
		st.internal[l.Internal] = true
		st.leaking[l.Leaker] = true
		st.internalIPs[l.Internal.EP.Addr] = true
		st.leakingIPs[l.Leaker.EP.Addr] = true
		st.ases[l.LeakerASN] = true
	}
	rows := make([]rangeRow, len(netaddr.ReservedRanges))
	for i, r := range netaddr.ReservedRanges {
		st := per[r]
		rows[i] = rangeRow{r, len(st.internal), len(st.internalIPs), len(st.leaking), len(st.leakingIPs), len(st.ases)}
	}
	return rows
}

// E03 renders Table 3: internal peers and leaking peers per range.
func (b *Bundle) E03() string {
	return "E03 / Table 3 — internal peers (left) and leaking peers (right)\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Range\tInternal total\tUnique IPs\tLeaking peers\tUnique IPs\tASes")
		for _, r := range b.rangeRows() {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", r.Range, r.Internal, r.InternalIPs, r.Leaking, r.LeakingIPs, r.ASes)
		}
	})
}

// E04 renders Figure 3: isolated vs clustered leak structure, using the
// most extreme AS of each kind as the exemplars.
func (b *Bundle) E04() string {
	// Walk ASes in ASN order: exemplar selection breaks ties by first
	// match, and map iteration order would make same-seed reports differ.
	asns := make([]uint32, 0, len(b.BT.PerAS))
	for asn := range b.BT.PerAS {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	var isolated, clustered *detect.BTAS
	for _, asn := range asns {
		as := b.BT.PerAS[asn]
		for _, cs := range as.Clusters {
			if as.CGN {
				if clustered == nil || cs.LeakerIPs > maxLeaker(clustered) {
					clustered = as
				}
			} else if cs.LeakerIPs > 0 {
				if isolated == nil {
					isolated = as
				}
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("E04 / Figure 3 — leak graph structure\n")
	describe := func(label string, as *detect.BTAS) {
		if as == nil {
			sb.WriteString(fmt.Sprintf("  (%s exemplar: none found)\n", label))
			return
		}
		sb.WriteString(fmt.Sprintf("  %s exemplar AS%d:\n", label, as.ASN))
		for _, r := range netaddr.ReservedRanges {
			if cs, ok := as.Clusters[r]; ok {
				sb.WriteString(fmt.Sprintf("    %-5s largest cluster: %d leaker IPs x %d internal IPs\n",
					r, cs.LeakerIPs, cs.InternalIPs))
			}
		}
	}
	describe("isolated (home NAT)", isolated)
	describe("clustered (CGN)", clustered)
	return sb.String()
}

func maxLeaker(as *detect.BTAS) int {
	m := 0
	for _, cs := range as.Clusters {
		if cs.LeakerIPs > m {
			m = cs.LeakerIPs
		}
	}
	return m
}

// E05 renders Figure 4: largest-cluster sizes per AS and range, against
// the 5x5 detection boundary.
func (b *Bundle) E05() string {
	var sb strings.Builder
	sb.WriteString("E05 / Figure 4 — largest cluster per AS per range (boundary: >=5 x >=5)\n")
	for _, r := range netaddr.ReservedRanges {
		above, below := 0, 0
		maxL, maxI := 0, 0
		for _, as := range b.BT.PerAS {
			cs, ok := as.Clusters[r]
			if !ok || cs.LeakerIPs == 0 {
				continue
			}
			if cs.Positive(b.BT.Cfg) {
				above++
			} else {
				below++
			}
			if cs.LeakerIPs > maxL {
				maxL = cs.LeakerIPs
			}
			if cs.InternalIPs > maxI {
				maxI = cs.InternalIPs
			}
		}
		sb.WriteString(fmt.Sprintf("  %-5s ASes above boundary: %3d   below: %3d   max cluster: %d x %d\n",
			r, above, below, maxL, maxI))
	}
	sb.WriteString(fmt.Sprintf("  VPN-excluded internal peers: %d\n", b.BT.ExcludedVPN))
	return sb.String()
}

// E06 renders Table 4: address categories for IPdev and IPcpe.
func (b *Bundle) E06() string {
	cats := []netaddr.Category{netaddr.CatPrivate, netaddr.CatUnrouted, netaddr.CatRoutedMatch, netaddr.CatRoutedMismatch}
	cell := b.Cellular.DevCategories
	dev := b.NonCell.DevCategories
	cpe := b.NonCell.CPECategories
	return "E06 / Table 4 — address categories\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "Category\tcellular IPdev (N=%d)\tnon-cell IPdev (N=%d)\tnon-cell IPcpe (N=%d)\n",
			cell.Total(), dev.Total(), cpe.Total())
		for _, c := range cats {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", c,
				pct(cell[c], cell.Total()), pct(dev[c], dev.Total()), pct(cpe[c], cpe.Total()))
		}
	})
}

// E07 renders Figure 5: the non-cellular candidate scatter and cutoff.
func (b *Bundle) E07() string {
	var sb strings.Builder
	sb.WriteString("E07 / Figure 5 — Netalyzr non-cellular funnel (cutoff: N>=10 candidates, /24s >= 0.4N)\n")
	detected, belowDiversity, belowN := 0, 0, 0
	for _, as := range b.NonCell.PerAS {
		switch {
		case as.CGN:
			detected++
		case as.Candidates >= b.NonCell.Cfg.MinNonCellularSessions:
			belowDiversity++
		case as.Candidates > 0:
			belowN++
		}
	}
	sb.WriteString(fmt.Sprintf("  detected: %d ASes; enough candidates but low diversity: %d; too few candidates: %d\n",
		detected, belowDiversity, belowN))
	sb.WriteString(fmt.Sprintf("  sessions filtered by top-%d CPE blocks: %d\n",
		b.NonCell.Cfg.CPEBlockTopN, b.NonCell.FilteredByBlock))
	sb.WriteString("  top CPE /24 blocks: ")
	for i, p := range b.NonCell.TopCPEBlocks {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	sb.WriteString("\n")
	return sb.String()
}

// E08 renders Table 5: coverage and detection per method per population.
func (b *Bundle) E08() string {
	db := b.World.DB
	pops := []asdb.Population{db.RoutedPopulation(), db.PBLPopulation(), db.APNICPopulation()}
	views := []detect.MethodView{b.BTV, b.NonCellV, b.UnionV, b.CellV}
	return "E08 / Table 5 — coverage and CGN-positive rates\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprint(w, "Method")
		for _, p := range pops {
			fmt.Fprintf(w, "\t%s covered\tpositive", p.Name)
		}
		fmt.Fprintln(w)
		for _, v := range views {
			fmt.Fprint(w, v.Name)
			for _, p := range pops {
				mc := v.Against(p)
				fmt.Fprintf(w, "\t%d (%s)\t%d (%s)", mc.Covered, pct(mc.Covered, mc.PopSize), mc.Positive, pct(mc.Positive, mc.Covered))
			}
			fmt.Fprintln(w)
		}
	})
}

// E09 renders Figure 6: per-RIR coverage and penetration.
func (b *Bundle) E09() string {
	regions := detect.ByRegion(b.World.DB, b.UnionV, b.CellV)
	return "E09 / Figure 6 — per-RIR eyeball coverage and CGN penetration\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "RIR\teyeball covered\teyeball CGN-positive\tcellular CGN-positive")
		for _, st := range regions {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", st.Region,
				pct(st.EyeballCovered, st.EyeballTotal),
				pct(st.EyeballPositive, st.EyeballCovered),
				pct(st.CellularPositive, st.CellularCovered))
		}
	})
}

// E10 renders Figure 7: internal address space usage.
func (b *Bundle) E10() string {
	var sb strings.Builder
	sb.WriteString("E10 / Figure 7(a) — internal address space per CGN AS\n")
	uses := []props.InternalUse{props.Use192, props.Use172, props.Use10, props.Use100, props.UseMultiple, props.UseRoutable}
	row := func(label string, f stats.Freq[props.InternalUse]) {
		sb.WriteString(fmt.Sprintf("  %-12s", label))
		for _, u := range uses {
			sb.WriteString(fmt.Sprintf("  %s=%s", u, pct(f[u], f.Total())))
		}
		sb.WriteString("\n")
	}
	row("cellular", b.Space.CellularUse)
	row("non-cellular", b.Space.NonCellularUse)
	sb.WriteString("E10 / Figure 7(b) — ASes using routable space internally\n")
	for _, ru := range b.Space.RoutableASes {
		blocks := make([]string, len(ru.Blocks))
		for i, p := range ru.Blocks {
			blocks[i] = p.String()
		}
		flag := ""
		if ru.Routed {
			flag = "  [block routed by another AS]"
		}
		sb.WriteString(fmt.Sprintf("  AS%d: %s%s\n", ru.ASN, strings.Join(blocks, ", "), flag))
	}
	return sb.String()
}

// E11 renders Figure 8: port allocation properties.
func (b *Bundle) E11() string {
	var sb strings.Builder
	sb.WriteString("E11 / Figure 8(a) — ephemeral ports seen by the server (normalized, 16 bands)\n")
	renderHist := func(label string, h *stats.Histogram) {
		norm := h.Normalized()
		// Fold 64 bins into 16 display bands.
		sb.WriteString(fmt.Sprintf("  %-22s ", label))
		for band := 0; band < 16; band++ {
			v := 0.0
			for k := 0; k < 4; k++ {
				if norm[band*4+k] > v {
					v = norm[band*4+k]
				}
			}
			sb.WriteByte(" .:-=+*#@"[int(v*8)])
		}
		sb.WriteString(fmt.Sprintf("  (N=%d)\n", h.Total))
	}
	renderHist("OS ephemeral ports", b.Ports.HistPreserved)
	renderHist("CGN port renumbering", b.Ports.HistTranslated)

	sb.WriteString("E11 / Figure 8(b) — CPE port preservation by model\n")
	models := make([]string, 0, len(b.Ports.CPEModels))
	for m := range b.Ports.CPEModels {
		models = append(models, m)
	}
	sort.Strings(models)
	preservingSessions, totalSessions := 0, 0
	for _, m := range models {
		ms := b.Ports.CPEModels[m]
		sb.WriteString(fmt.Sprintf("  %-18s sessions=%4d preserving=%4d (%s)\n",
			m, ms.Sessions, ms.Preserving, pct(ms.Preserving, ms.Sessions)))
		preservingSessions += ms.Preserving
		totalSessions += ms.Sessions
	}
	sb.WriteString(fmt.Sprintf("  overall preserving sessions: %s (paper: 92%%)\n", pct(preservingSessions, totalSessions)))

	sb.WriteString("E11 / Figure 8(c) — chunk-based allocation example\n")
	if chunked := b.Ports.ChunkASes(); len(chunked) > 0 {
		as := chunked[0]
		bands := props.ChunkExample(b.Sessions, as.ASN)
		if len(bands) > 12 {
			bands = bands[:12]
		}
		sb.WriteString(fmt.Sprintf("  AS%d (estimated chunk %d ports):\n", as.ASN, as.ChunkSize))
		for i, band := range bands {
			sb.WriteString(fmt.Sprintf("    session %2d: ports %5d..%5d\n", i+1, band.Lo, band.Hi))
		}
	} else {
		sb.WriteString("  (no chunk-based AS detected)\n")
	}
	return sb.String()
}

// E12 renders Figure 9 and Table 6: port allocation strategies per AS.
func (b *Bundle) E12() string {
	var sb strings.Builder
	sb.WriteString("E12 / Figure 9 — per-AS strategy mixes\n")
	for _, cellular := range []bool{false, true} {
		pure, mixed := 0, 0
		for _, as := range b.Ports.PerAS {
			if as.Cellular != cellular {
				continue
			}
			if as.Pure() {
				pure++
			} else {
				mixed++
			}
		}
		label := "non-cellular"
		if cellular {
			label = "cellular"
		}
		sb.WriteString(fmt.Sprintf("  %-12s pure-strategy ASes: %d, mixed: %d (%s pure)\n",
			label, pure, mixed, pct(pure, pure+mixed)))
	}
	sb.WriteString("E12 / Table 6 — dominant strategy per AS\n")
	sb.WriteString(table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Strategy\tNon-cellular\tCellular")
		non := b.Ports.DominantShares(false)
		cel := b.Ports.DominantShares(true)
		for _, s := range []props.PortStrategy{props.StrategyPreservation, props.StrategySequential, props.StrategyRandom} {
			fmt.Fprintf(w, "%s\t%s\t%s\n", s, pct(non[s], non.Total()), pct(cel[s], cel.Total()))
		}
	}))
	chunked := b.Ports.ChunkASes()
	buckets := map[string]int{}
	for _, as := range chunked {
		switch {
		case as.ChunkSize <= 1024:
			buckets["CS <= 1K"]++
		case as.ChunkSize <= 4096:
			buckets["1K < CS <= 4K"]++
		default:
			buckets["4K < CS <= 16K"]++
		}
	}
	sb.WriteString(fmt.Sprintf("  chunk-based ASes: %d;  CS<=1K: %d,  1K<CS<=4K: %d,  4K<CS<=16K: %d\n",
		len(chunked), buckets["CS <= 1K"], buckets["1K < CS <= 4K"], buckets["4K < CS <= 16K"]))
	arbitrary := 0
	for _, as := range b.Ports.PerAS {
		if as.ArbitraryPoolingFrac() > props.PoolingArbitraryFrac {
			arbitrary++
		}
	}
	sb.WriteString(fmt.Sprintf("  arbitrary pooling: %d of %d CGN ASes (%s; paper: 21%%)\n",
		arbitrary, len(b.Ports.PerAS), pct(arbitrary, len(b.Ports.PerAS))))
	return sb.String()
}

// E13 renders Table 7: TTL enumeration detection quadrants.
func (b *Bundle) E13() string {
	q := b.TTLQuad
	return "E13 / Table 7 — TTL-driven NAT enumeration outcomes\n" + table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "\tNAT state expired\tno expiry observed")
		fmt.Fprintf(w, "IP mismatch\t%s\t%s\n", pct(q.DetectedMismatch, q.Total()), pct(q.UndetectedMismatch, q.Total()))
		fmt.Fprintf(w, "IP match\t%s\t%s\n", pct(q.DetectedMatch, q.Total()), pct(q.UndetectedMatch, q.Total()))
	})
}

// E14 renders Figure 11: most distant NAT per AS.
func (b *Bundle) E14() string {
	var sb strings.Builder
	sb.WriteString("E14 / Figure 11 — most distant NAT from the subscriber (fraction of ASes)\n")
	classes := []props.NetClass{props.NonCellularNoCGN, props.NonCellularCGN, props.CellularCGN}
	for _, cls := range classes {
		f := b.Distance.PerClass[cls]
		n := b.Distance.ASCount[cls]
		sb.WriteString(fmt.Sprintf("  %-22s (n=%d): ", cls, n))
		for hop := 1; hop <= props.DistanceBucketMax; hop++ {
			if f[hop] > 0 {
				label := fmt.Sprintf("%d", hop)
				if hop == props.DistanceBucketMax {
					label = ">=10"
				}
				sb.WriteString(fmt.Sprintf("hop%s=%s ", label, pct(f[hop], n)))
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// E15 renders Figure 12: UDP mapping timeout boxplots.
func (b *Bundle) E15() string {
	var sb strings.Builder
	sb.WriteString("E15 / Figure 12 — UDP mapping timeouts (seconds)\n")
	box := func(label string, xs []float64) {
		s := stats.Summarize(xs)
		if s.N == 0 {
			sb.WriteString(fmt.Sprintf("  %-24s (no samples)\n", label))
			return
		}
		lo, hi := s.Whiskers()
		sb.WriteString(fmt.Sprintf("  %-24s n=%-4d min=%-5.0f p25=%-5.0f median=%-5.0f p75=%-5.0f max=%-5.0f whiskers=[%.0f,%.0f]\n",
			label, s.N, s.Min, s.P25, s.Median, s.P75, s.Max, lo, hi))
	}
	box("cellular CGN (per AS)", b.Timeouts.CellularPerAS)
	box("non-cellular CGN (per AS)", b.Timeouts.NonCellularPerAS)
	box("CPE (per session)", b.Timeouts.CPEPerSession)
	return sb.String()
}

// E16 renders Figure 13: STUN mapping types.
func (b *Bundle) E16() string {
	var sb strings.Builder
	order := []stun.NATClass{stun.ClassSymmetric, stun.ClassPortRestricted, stun.ClassAddressRestricted, stun.ClassFullCone}
	render := func(label string, f stats.Freq[stun.NATClass]) {
		sb.WriteString(fmt.Sprintf("  %-24s", label))
		for _, c := range order {
			sb.WriteString(fmt.Sprintf("  %s=%s", c, pct(f[c], f.Total())))
		}
		sb.WriteString(fmt.Sprintf("  (n=%d)\n", f.Total()))
	}
	sb.WriteString("E16 / Figure 13(a) — CPE session mapping types\n")
	render("non-cellular no CGN", b.STUN.CPESessions)
	sb.WriteString("E16 / Figure 13(b) — most permissive type per CGN AS\n")
	render("cellular CGN", b.STUN.CellularASes)
	render("non-cellular CGN", b.STUN.NonCellularASes)
	return sb.String()
}

// Scores renders the ground-truth evaluation the paper could not do.
func (b *Bundle) Scores() string {
	truth := b.World.CGNTruth()
	var sb strings.Builder
	sb.WriteString("Ground truth scoring (precision/recall over covered ASes)\n")
	for _, v := range []detect.MethodView{b.BTV, b.CellV, b.NonCellV, b.UnionV} {
		s := v.ScoreAgainstTruth(truth)
		sb.WriteString(fmt.Sprintf("  %-24s tp=%-4d fp=%-3d fn=%-4d precision=%.2f recall=%.2f\n",
			v.Name, s.TruePositive, s.FalsePositive, s.FalseNegative, s.Precision(), s.Recall()))
	}
	return sb.String()
}

// Experiments lists every experiment's ID and renderer in report order,
// E01 through E22; there is no E20.
var Experiments = []struct {
	ID     string
	Render func(*Bundle) string
}{
	{"E01", (*Bundle).E01}, {"E02", (*Bundle).E02}, {"E03", (*Bundle).E03}, {"E04", (*Bundle).E04},
	{"E05", (*Bundle).E05}, {"E06", (*Bundle).E06}, {"E07", (*Bundle).E07}, {"E08", (*Bundle).E08},
	{"E09", (*Bundle).E09}, {"E10", (*Bundle).E10}, {"E11", (*Bundle).E11}, {"E12", (*Bundle).E12},
	{"E13", (*Bundle).E13}, {"E14", (*Bundle).E14}, {"E15", (*Bundle).E15}, {"E16", (*Bundle).E16},
	{"E17", (*Bundle).E17}, {"E18", (*Bundle).E18}, {"E19", (*Bundle).E19}, {"E21", (*Bundle).E21},
	{"E22", (*Bundle).E22},
}

// All renders every experiment in order, then the ground-truth scores.
func (b *Bundle) All() string {
	parts := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		parts = append(parts, e.Render(b))
	}
	return strings.Join(append(parts, b.Scores()), "\n")
}
