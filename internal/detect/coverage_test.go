package detect

import (
	"testing"

	"cgn/internal/asdb"
)

// popOf builds a small population for Against tests.
func popOf(name string, asns ...uint32) asdb.Population {
	set := make(map[uint32]bool, len(asns))
	for _, a := range asns {
		set[a] = true
	}
	return asdb.Population{Name: name, ASNs: set}
}

// TestCoverageZeroVantageAS pins the accounting for ASes no method ever
// observed: a zero-vantage AS is neither covered nor positive, it never
// becomes a false negative in ScoreAgainstTruth (the score is defined
// over covered ASes only), and an empty view's PositiveFrac divides to
// zero rather than NaN.
func TestCoverageZeroVantageAS(t *testing.T) {
	// AS 30 exists in the population and truly deploys CGN, but no
	// vantage point ever reached it.
	view := NewMethodView("bt", []uint32{10, 20}, []uint32{10})
	pop := popOf("routed", 10, 20, 30)

	mc := view.Against(pop)
	if mc.PopSize != 3 || mc.Covered != 2 || mc.Positive != 1 {
		t.Fatalf("Against = %+v, want population 3, covered 2, positive 1", mc)
	}

	truth := map[uint32]bool{10: true, 30: true}
	s := view.ScoreAgainstTruth(truth)
	if s.TruePositive != 1 || s.FalsePositive != 0 || s.FalseNegative != 0 {
		t.Errorf("zero-vantage AS leaked into the score: %+v", s)
	}

	// A method with no sessions at all: its positive share must be 0,
	// not NaN.
	empty := NewMethodView("empty", nil, nil)
	mc = empty.Against(pop)
	if mc.PositiveFrac() != 0 {
		t.Errorf("empty view's positive share not zero: %+v", mc)
	}
	if s := empty.ScoreAgainstTruth(truth); s != (Score{}) {
		t.Errorf("empty view scored %+v, want zero", s)
	}
	if empty.ScoreAgainstTruth(truth).Precision() != 1 {
		t.Error("precision over nothing flagged must be 1")
	}
}

// TestUnionSingleMethodEvidence: an AS seen by only one method must
// carry through the union exactly once, whichever side saw it.
func TestUnionSingleMethodEvidence(t *testing.T) {
	btOnly := NewMethodView("BitTorrent", []uint32{1, 2}, []uint32{1})
	nlOnly := NewMethodView("Netalyzr", []uint32{3, 4}, []uint32{4})
	u := Union("union", btOnly, nlOnly)

	for _, asn := range []uint32{1, 2, 3, 4} {
		if !u.Covered[asn] {
			t.Errorf("AS%d missing from union coverage", asn)
		}
	}
	if !u.Positive[1] || !u.Positive[4] {
		t.Error("single-method positives missing from union")
	}
	if u.Positive[2] || u.Positive[3] {
		t.Error("union invented positives for covered-negative ASes")
	}

	// Disjoint methods against a shared population: counts are sums.
	pop := popOf("all", 1, 2, 3, 4)
	mc := u.Against(pop)
	if mc.Covered != 4 || mc.Positive != 2 {
		t.Errorf("union Against = %+v, want covered 4 positive 2", mc)
	}
}

// TestUnionDoubleCountGuard: an AS both methods covered — and both
// flagged — appears once in the union's sets and once in every count
// derived from them. Sets make double-counting structurally impossible;
// this test keeps it that way if the representation ever changes.
func TestUnionDoubleCountGuard(t *testing.T) {
	bt := NewMethodView("BitTorrent", []uint32{7, 8}, []uint32{7})
	nl := NewMethodView("Netalyzr", []uint32{7, 9}, []uint32{7})
	u := Union("union", bt, nl)

	if len(u.Covered) != 3 {
		t.Errorf("union covers %d ASes, want 3 (AS7 must count once)", len(u.Covered))
	}
	if len(u.Positive) != 1 {
		t.Errorf("union has %d positives, want 1 (AS7 must count once)", len(u.Positive))
	}
	mc := u.Against(popOf("all", 7, 8, 9))
	if mc.Covered != 3 || mc.Positive != 1 {
		t.Errorf("union Against double-counted: %+v", mc)
	}
	s := u.ScoreAgainstTruth(map[uint32]bool{7: true})
	if s.TruePositive != 1 || s.FalsePositive != 0 || s.FalseNegative != 0 {
		t.Errorf("union score double-counted: %+v", s)
	}
}

// TestAgainstRequiresCoverage: a positive ASN that is not in the view's
// covered set (a pipeline inconsistency) and a positive outside the
// population must both be ignored by Against.
func TestAgainstRequiresCoverage(t *testing.T) {
	v := MethodView{
		Name:     "odd",
		Covered:  map[uint32]bool{1: true},
		Positive: map[uint32]bool{1: true, 2: true, 99: true},
	}
	mc := v.Against(popOf("pop", 1, 2))
	if mc.Covered != 1 {
		t.Errorf("covered = %d, want 1", mc.Covered)
	}
	if mc.Positive != 1 {
		t.Errorf("positive = %d, want 1: uncovered or out-of-population positives must not count", mc.Positive)
	}
}
