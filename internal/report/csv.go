package report

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"cgn/internal/detect"
	"cgn/internal/netaddr"
	"cgn/internal/props"
	"cgn/internal/stats"
	"cgn/internal/stun"
	"cgn/internal/survey"
)

// WriteCSVs exports every figure's data series as CSV files into dir
// (created if needed), one file per plot, and returns the paths written.
// These are the figure-regeneration artifacts: feed them to any plotting
// tool to redraw the paper's graphics from this repository's measurements.
func (b *Bundle) WriteCSVs(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	write := func(name string, header []string, rows [][]string) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; the success path checks Close below
		w := csv.NewWriter(f)
		if err := w.Write(header); err != nil {
			return err
		}
		if err := w.WriteAll(rows); err != nil { // WriteAll flushes
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}

	if err := write("e01_survey.csv",
		[]string{"question", "answer", "count"}, b.csvSurvey()); err != nil {
		return written, err
	}
	if err := write("e03_ranges.csv",
		[]string{"range", "internal_peers", "internal_ips", "leaking_peers", "leaking_ips", "ases"},
		b.csvRanges()); err != nil {
		return written, err
	}
	if err := write("e05_clusters.csv",
		[]string{"asn", "range", "leaker_ips", "internal_ips", "positive"},
		b.csvClusters()); err != nil {
		return written, err
	}
	if err := write("e06_categories.csv",
		[]string{"population", "category", "count"}, b.csvCategories()); err != nil {
		return written, err
	}
	if err := write("e07_funnel.csv",
		[]string{"asn", "sessions", "candidates", "cpe_blocks", "cgn"},
		b.csvFunnel()); err != nil {
		return written, err
	}
	if err := write("e08_coverage.csv",
		[]string{"method", "population", "pop_size", "covered", "positive"},
		b.csvCoverage()); err != nil {
		return written, err
	}
	if err := write("e09_regions.csv",
		[]string{"region", "eyeball_total", "eyeball_covered", "eyeball_positive", "cellular_covered", "cellular_positive"},
		b.csvRegions()); err != nil {
		return written, err
	}
	if err := write("e10_space.csv",
		[]string{"population", "use", "ases"}, b.csvSpace()); err != nil {
		return written, err
	}
	if err := write("e11a_port_hist.csv",
		[]string{"bin_center", "preserved", "translated"}, b.csvPortHist()); err != nil {
		return written, err
	}
	if err := write("e11b_cpe_models.csv",
		[]string{"model", "sessions", "preserving"}, b.csvModels()); err != nil {
		return written, err
	}
	if err := write("e12_strategies.csv",
		[]string{"asn", "cellular", "preservation", "sequential", "random", "chunk_size"},
		b.csvStrategies()); err != nil {
		return written, err
	}
	if err := write("e13_quadrants.csv",
		[]string{"expired", "mismatch", "sessions"}, b.csvQuadrants()); err != nil {
		return written, err
	}
	if err := write("e14_distance.csv",
		[]string{"class", "hop", "ases"}, b.csvDistance()); err != nil {
		return written, err
	}
	if err := write("e15_timeouts.csv",
		[]string{"group", "seconds"}, b.csvTimeouts()); err != nil {
		return written, err
	}
	if err := write("e16_stun.csv",
		[]string{"population", "class", "count"}, b.csvSTUN()); err != nil {
		return written, err
	}
	return written, nil
}

func itoa(n int) string { return strconv.Itoa(n) }

func (b *Bundle) csvSurvey() [][]string {
	var rows [][]string
	for _, s := range []survey.CGNStatus{survey.CGNDeployed, survey.CGNConsidering, survey.CGNNoPlans} {
		rows = append(rows, []string{"cgn", s.String(), itoa(b.Survey.CGN[s])})
	}
	for _, s := range []survey.IPv6Status{survey.IPv6MostSubscribers, survey.IPv6SomeSubscribers, survey.IPv6PlansSoon, survey.IPv6NoPlans} {
		rows = append(rows, []string{"ipv6", s.String(), itoa(b.Survey.IPv6[s])})
	}
	return rows
}

func (b *Bundle) csvRanges() [][]string {
	var rows [][]string
	for _, r := range b.rangeRows() {
		rows = append(rows, []string{r.Range.String(), itoa(r.Internal), itoa(r.InternalIPs),
			itoa(r.Leaking), itoa(r.LeakingIPs), itoa(r.ASes)})
	}
	return rows
}

func (b *Bundle) csvClusters() [][]string {
	var rows [][]string
	asns := sortedASNs(b.BT.PerAS)
	for _, asn := range asns {
		as := b.BT.PerAS[asn]
		for _, r := range netaddr.ReservedRanges {
			cs, ok := as.Clusters[r]
			if !ok || cs.LeakerIPs == 0 {
				continue
			}
			rows = append(rows, []string{itoa(int(asn)), r.String(),
				itoa(cs.LeakerIPs), itoa(cs.InternalIPs),
				strconv.FormatBool(cs.Positive(b.BT.Cfg))})
		}
	}
	return rows
}

func (b *Bundle) csvCategories() [][]string {
	var rows [][]string
	cats := []netaddr.Category{netaddr.CatPrivate, netaddr.CatUnrouted, netaddr.CatRoutedMatch, netaddr.CatRoutedMismatch}
	add := func(pop string, f stats.Freq[netaddr.Category]) {
		for _, c := range cats {
			rows = append(rows, []string{pop, c.String(), itoa(f[c])})
		}
	}
	add("cellular_ipdev", b.Cellular.DevCategories)
	add("noncellular_ipdev", b.NonCell.DevCategories)
	add("noncellular_ipcpe", b.NonCell.CPECategories)
	return rows
}

func (b *Bundle) csvFunnel() [][]string {
	var rows [][]string
	for _, asn := range sortedASNs(b.NonCell.PerAS) {
		as := b.NonCell.PerAS[asn]
		rows = append(rows, []string{itoa(int(asn)), itoa(as.Sessions),
			itoa(as.Candidates), itoa(as.CPEBlocks), strconv.FormatBool(as.CGN)})
	}
	return rows
}

func (b *Bundle) csvCoverage() [][]string {
	db := b.World.DB
	var rows [][]string
	for _, v := range []detect.MethodView{b.BTV, b.NonCellV, b.UnionV, b.CellV} {
		for _, pop := range []string{"routed", "pbl", "apnic"} {
			var mc detect.MethodCoverage
			switch pop {
			case "routed":
				mc = v.Against(db.RoutedPopulation())
			case "pbl":
				mc = v.Against(db.PBLPopulation())
			case "apnic":
				mc = v.Against(db.APNICPopulation())
			}
			rows = append(rows, []string{v.Name, pop, itoa(mc.PopSize), itoa(mc.Covered), itoa(mc.Positive)})
		}
	}
	return rows
}

func (b *Bundle) csvRegions() [][]string {
	var rows [][]string
	for _, st := range detect.ByRegion(b.World.DB, b.UnionV, b.CellV) {
		rows = append(rows, []string{st.Region.String(), itoa(st.EyeballTotal),
			itoa(st.EyeballCovered), itoa(st.EyeballPositive),
			itoa(st.CellularCovered), itoa(st.CellularPositive)})
	}
	return rows
}

func (b *Bundle) csvSpace() [][]string {
	var rows [][]string
	uses := []props.InternalUse{props.Use192, props.Use172, props.Use10, props.Use100, props.UseMultiple, props.UseRoutable}
	for _, u := range uses {
		rows = append(rows, []string{"cellular", u.String(), itoa(b.Space.CellularUse[u])})
	}
	for _, u := range uses {
		rows = append(rows, []string{"noncellular", u.String(), itoa(b.Space.NonCellularUse[u])})
	}
	return rows
}

func (b *Bundle) csvPortHist() [][]string {
	var rows [][]string
	for i := range b.Ports.HistPreserved.Bins {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", b.Ports.HistPreserved.BinCenter(i)),
			itoa(b.Ports.HistPreserved.Bins[i]),
			itoa(b.Ports.HistTranslated.Bins[i]),
		})
	}
	return rows
}

func (b *Bundle) csvModels() [][]string {
	models := make([]string, 0, len(b.Ports.CPEModels))
	for m := range b.Ports.CPEModels {
		models = append(models, m)
	}
	sort.Strings(models)
	var rows [][]string
	for _, m := range models {
		ms := b.Ports.CPEModels[m]
		rows = append(rows, []string{m, itoa(ms.Sessions), itoa(ms.Preserving)})
	}
	return rows
}

func (b *Bundle) csvStrategies() [][]string {
	var rows [][]string
	for _, asn := range sortedASNs(b.Ports.PerAS) {
		as := b.Ports.PerAS[asn]
		rows = append(rows, []string{itoa(int(asn)), strconv.FormatBool(as.Cellular),
			itoa(as.Strategies[props.StrategyPreservation]),
			itoa(as.Strategies[props.StrategySequential]),
			itoa(as.Strategies[props.StrategyRandom]),
			itoa(as.ChunkSize)})
	}
	return rows
}

func (b *Bundle) csvQuadrants() [][]string {
	q := b.TTLQuad
	return [][]string{
		{"true", "true", itoa(q.DetectedMismatch)},
		{"true", "false", itoa(q.DetectedMatch)},
		{"false", "true", itoa(q.UndetectedMismatch)},
		{"false", "false", itoa(q.UndetectedMatch)},
	}
}

func (b *Bundle) csvDistance() [][]string {
	var rows [][]string
	for _, cls := range []props.NetClass{props.NonCellularNoCGN, props.NonCellularCGN, props.CellularCGN} {
		f := b.Distance.PerClass[cls]
		for hop := 1; hop <= props.DistanceBucketMax; hop++ {
			if f[hop] > 0 {
				rows = append(rows, []string{cls.String(), itoa(hop), itoa(f[hop])})
			}
		}
	}
	return rows
}

func (b *Bundle) csvTimeouts() [][]string {
	var rows [][]string
	add := func(group string, xs []float64) {
		for _, v := range xs {
			rows = append(rows, []string{group, fmt.Sprintf("%.0f", v)})
		}
	}
	add("cellular_cgn_per_as", b.Timeouts.CellularPerAS)
	add("noncellular_cgn_per_as", b.Timeouts.NonCellularPerAS)
	add("cpe_per_session", b.Timeouts.CPEPerSession)
	return rows
}

func (b *Bundle) csvSTUN() [][]string {
	var rows [][]string
	order := []stun.NATClass{stun.ClassSymmetric, stun.ClassPortRestricted, stun.ClassAddressRestricted, stun.ClassFullCone}
	add := func(pop string, f stats.Freq[stun.NATClass]) {
		for _, c := range order {
			rows = append(rows, []string{pop, c.String(), itoa(f[c])})
		}
	}
	add("cpe_sessions", b.STUN.CPESessions)
	add("cellular_cgn_ases", b.STUN.CellularASes)
	add("noncellular_cgn_ases", b.STUN.NonCellularASes)
	return rows
}

func sortedASNs[V any](m map[uint32]V) []uint32 {
	out := make([]uint32, 0, len(m))
	for asn := range m {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
