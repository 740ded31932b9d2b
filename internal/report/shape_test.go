package report

import (
	"testing"

	"cgn/internal/detect"
	"cgn/internal/internet"
	"cgn/internal/props"
	"cgn/internal/stun"
)

// TestPaperShapeInvariants runs the full Paper-scenario campaign and
// asserts the qualitative claims the reproduction stands on — the shapes
// EXPERIMENTS.md documents. Thresholds are deliberately loose: they
// protect the findings, not exact numbers.
func TestPaperShapeInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper campaign in -short mode")
	}
	b := Collect(internet.Build(internet.Paper()))
	db := b.World.DB
	truth := b.World.CGNTruth()

	// §5 / Table 5: cellular CGN penetration is very high among covered
	// cellular ASes; eyeball penetration sits in the tens of percent;
	// the union detects more than either single method.
	cell := b.CellV.Against(db.CellularPopulation())
	if cell.PositiveFrac() < 0.75 {
		t.Errorf("cellular positive rate = %.2f, want the >90%%-like shape", cell.PositiveFrac())
	}
	pbl := db.PBLPopulation()
	bt := b.BTV.Against(pbl)
	union := b.UnionV.Against(pbl)
	if union.Positive <= bt.Positive {
		t.Errorf("union positives (%d) must exceed BitTorrent alone (%d)", union.Positive, bt.Positive)
	}
	if f := union.PositiveFrac(); f < 0.10 || f > 0.40 {
		t.Errorf("eyeball union positive rate = %.2f, want the 17%%-like band", f)
	}

	// Detection soundness: the paper chose conservative thresholds to
	// favor precision; ground truth lets us verify that directly.
	for _, v := range []struct {
		name string
		s    float64
	}{
		{"BitTorrent", b.BTV.ScoreAgainstTruth(truth).Precision()},
		{"cellular", b.CellV.ScoreAgainstTruth(truth).Precision()},
		{"non-cellular", b.NonCellV.ScoreAgainstTruth(truth).Precision()},
	} {
		if v.s < 0.9 {
			t.Errorf("%s precision = %.2f, conservativeness violated", v.name, v.s)
		}
	}

	// Fig 6: APNIC+RIPE eyeball penetration exceeds the other regions'.
	regions := b.regionsByName(t)
	hi := regions["APNIC"].rate + regions["RIPE"].rate
	lo := regions["ARIN"].rate + regions["LACNIC"].rate + regions["AFRINIC"].rate
	if hi/2 <= lo/3 {
		t.Errorf("scarcity-region penetration (%.2f avg) should exceed the rest (%.2f avg)", hi/2, lo/3)
	}

	// Table 7: detected-with-mismatch dominates; stateful-without-
	// translation stays marginal.
	q := b.TTLQuad
	if q.DetectedMismatch <= q.UndetectedMismatch {
		t.Errorf("quadrants inverted: %d detected vs %d undetected mismatches",
			q.DetectedMismatch, q.UndetectedMismatch)
	}
	if q.DetectedMatch*20 > q.Total() {
		t.Errorf("stateful-without-translation = %d of %d, should be marginal", q.DetectedMatch, q.Total())
	}

	// Fig 11: home-ISP NATs sit at hop 1; CGNs sit deeper.
	noCGN := b.Distance.PerClass[props.NonCellularNoCGN]
	if n := b.Distance.ASCount[props.NonCellularNoCGN]; n == 0 || float64(noCGN[1])/float64(n) < 0.8 {
		t.Errorf("no-CGN hop-1 share = %d/%d, want the 92%%-like shape", noCGN[1], n)
	}

	// Fig 12: non-cellular CGN timeouts sit below cellular ones.
	cellTO := median(b.Timeouts.CellularPerAS)
	nonTO := median(b.Timeouts.NonCellularPerAS)
	if !(nonTO < cellTO) {
		t.Errorf("timeout medians: non-cellular %.0f vs cellular %.0f, want non-cellular lower", nonTO, cellTO)
	}

	// Fig 13: symmetric CPEs are rare; symmetric CGNs are not.
	cpe := b.STUN.CPESessions
	if frac := float64(cpe[stun.ClassSymmetric]) / float64(cpe.Total()); frac > 0.10 {
		t.Errorf("symmetric CPE session share = %.2f, want rare", frac)
	}
	cgnSym := b.STUN.CellularASes[stun.ClassSymmetric] + b.STUN.NonCellularASes[stun.ClassSymmetric]
	if cgnSym == 0 {
		t.Error("no symmetric CGN ASes observed; the restrictive tail is missing")
	}

	// Fig 8 / Table 6: chunk-based allocators exist and are a minority.
	chunked := len(b.Ports.ChunkASes())
	if chunked == 0 {
		t.Error("no chunk-based ASes detected")
	}
	if chunked*2 > len(b.Ports.PerAS) {
		t.Errorf("chunked ASes = %d of %d, should be a minority", chunked, len(b.Ports.PerAS))
	}

	// E18 / §6.2 Figure 8: per-subscriber concurrent ports are heavy-
	// tailed — max above p99 above a nonzero median.
	all := b.Traffic.Res.All
	if !(all.Max > all.P99 && all.P99 > all.Median && all.Median > 0) {
		t.Errorf("E18 Figure 8 ordering violated: max=%d p99=%d median=%d", all.Max, all.P99, all.Median)
	}

	// E21: detection recall rises with observation length — the longest
	// window beats the shortest and catches nearly every CGN.
	if b.Observe.Err != nil {
		t.Fatalf("E21 fleet run failed: %v", b.Observe.Err)
	}
	wins := b.Observe.Res.Windows
	if len(wins) < 2 {
		t.Fatalf("E21 scored %d observation windows, want at least 2", len(wins))
	}
	short, long := wins[0], wins[len(wins)-1]
	if long.Recall <= short.Recall || long.Recall < 0.9 {
		t.Errorf("E21 recall %.3f at %d days vs %.3f at %d days, want rising to >= 0.9",
			short.Recall, short.Days, long.Recall, long.Days)
	}
}

type regionRate struct{ rate float64 }

func (b *Bundle) regionsByName(t *testing.T) map[string]regionRate {
	t.Helper()
	out := map[string]regionRate{}
	for _, st := range detect.ByRegion(b.World.DB, b.UnionV, b.CellV) {
		rate := 0.0
		if st.EyeballCovered > 0 {
			rate = float64(st.EyeballPositive) / float64(st.EyeballCovered)
		}
		out[st.Region.String()] = regionRate{rate: rate}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
