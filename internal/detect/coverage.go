package detect

import (
	"sort"

	"cgn/internal/asdb"
)

// MethodCoverage is one row-fragment of Table 5: how many ASes of a
// population a method covered and how many of those it found CGN-positive.
type MethodCoverage struct {
	Method     string
	Population string
	PopSize    int
	Covered    int
	Positive   int
}

// PositiveFrac is the CGN-positive share among covered ASes, 0 when
// none is covered. Report's shape tests read it; Table 5 prints its
// percentages from the counts (report's pct).
func (m MethodCoverage) PositiveFrac() float64 {
	if m.Covered == 0 {
		return 0
	}
	return float64(m.Positive) / float64(m.Covered)
}

// MethodView is a uniform facade over the three pipelines (and their
// union) for coverage accounting.
type MethodView struct {
	Name     string
	Covered  map[uint32]bool
	Positive map[uint32]bool
}

// NewMethodView builds a view from sorted AS lists.
func NewMethodView(name string, covered, positive []uint32) MethodView {
	v := MethodView{Name: name, Covered: map[uint32]bool{}, Positive: map[uint32]bool{}}
	for _, asn := range covered {
		v.Covered[asn] = true
	}
	for _, asn := range positive {
		v.Positive[asn] = true
	}
	return v
}

// BTView adapts a BitTorrent result.
func BTView(r *BTResult) MethodView {
	return NewMethodView("BitTorrent", r.CoveredASes(), r.PositiveASes())
}

// CellularView adapts the cellular Netalyzr result.
func CellularView(r *CellularResult) MethodView {
	return NewMethodView("Netalyzr cellular", r.CoveredASes(), r.PositiveASes())
}

// NonCellularView adapts the non-cellular Netalyzr result.
func NonCellularView(r *NonCellularResult) MethodView {
	return NewMethodView("Netalyzr non-cellular", r.CoveredASes(), r.PositiveASes())
}

// Union combines methods: covered if any covers, positive if any is
// positive (the "BitTorrent ∪ Netalyzr" row of Table 5).
func Union(name string, views ...MethodView) MethodView {
	u := MethodView{Name: name, Covered: map[uint32]bool{}, Positive: map[uint32]bool{}}
	for _, v := range views {
		for asn := range v.Covered {
			u.Covered[asn] = true
		}
		for asn := range v.Positive {
			u.Positive[asn] = true
		}
	}
	return u
}

// Against scores the view against one AS population.
func (v MethodView) Against(p asdb.Population) MethodCoverage {
	mc := MethodCoverage{Method: v.Name, Population: p.Name, PopSize: p.Size()}
	for asn := range v.Covered {
		if p.Contains(asn) {
			mc.Covered++
		}
	}
	for asn := range v.Positive {
		if p.Contains(asn) && v.Covered[asn] {
			mc.Positive++
		}
	}
	return mc
}

// RegionStat is one bar group of Figure 6.
type RegionStat struct {
	Region asdb.RIR
	// EyeballCovered / EyeballTotal: coverage of the eyeball population.
	EyeballCovered, EyeballTotal int
	// EyeballPositive: CGN-positive among covered eyeball ASes.
	EyeballPositive int
	// CellularCovered / CellularPositive: cellular ASes.
	CellularCovered, CellularPositive int
}

// ByRegion rolls a combined eyeball view and a cellular view up per RIR,
// using the PBL eyeball population as Figure 6 does.
func ByRegion(db *asdb.DB, eyeball MethodView, cellular MethodView) []RegionStat {
	pbl := db.PBLPopulation()
	out := make([]RegionStat, len(asdb.RIRs))
	for i, r := range asdb.RIRs {
		out[i].Region = r
	}
	idx := func(r asdb.RIR) *RegionStat { return &out[int(r)] }
	for _, as := range db.All() {
		st := idx(as.Region)
		if pbl.Contains(as.ASN) {
			st.EyeballTotal++
			if eyeball.Covered[as.ASN] {
				st.EyeballCovered++
				if eyeball.Positive[as.ASN] {
					st.EyeballPositive++
				}
			}
		}
		if as.Kind == asdb.Cellular {
			if cellular.Covered[as.ASN] {
				st.CellularCovered++
				if cellular.Positive[as.ASN] {
					st.CellularPositive++
				}
			}
		}
	}
	return out
}

// Score compares a method view to ground truth (the set of ASes that
// truly deploy CGN) over the covered ASes, yielding precision and recall
// — an evaluation the paper could only approximate by manual validation.
type Score struct {
	TruePositive, FalsePositive int
	FalseNegative               int
}

// Precision returns TP/(TP+FP), or 1 when nothing was flagged.
func (s Score) Precision() float64 {
	if s.TruePositive+s.FalsePositive == 0 {
		return 1
	}
	return float64(s.TruePositive) / float64(s.TruePositive+s.FalsePositive)
}

// Recall returns TP/(TP+FN), or 1 when there was nothing to find.
func (s Score) Recall() float64 {
	if s.TruePositive+s.FalseNegative == 0 {
		return 1
	}
	return float64(s.TruePositive) / float64(s.TruePositive+s.FalseNegative)
}

// ScoreAgainstTruth evaluates the view over its covered ASes.
func (v MethodView) ScoreAgainstTruth(truth map[uint32]bool) Score {
	var s Score
	asns := make([]uint32, 0, len(v.Covered))
	for asn := range v.Covered {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		switch {
		case v.Positive[asn] && truth[asn]:
			s.TruePositive++
		case v.Positive[asn] && !truth[asn]:
			s.FalsePositive++
		case !v.Positive[asn] && truth[asn]:
			s.FalseNegative++
		}
	}
	return s
}
