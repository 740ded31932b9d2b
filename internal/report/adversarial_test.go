package report

import (
	"reflect"
	"strings"
	"testing"

	"cgn/internal/internet"
)

// TestE19Disabled: a scenario without adversarial load renders the
// disabled notice and leaves the dataset zero.
func TestE19Disabled(t *testing.T) {
	b := bundle(t)
	if b.Adversarial.Enabled {
		t.Fatalf("small scenario has no adversaries but E19 ran: %+v", b.Adversarial)
	}
	if out := b.E19(); !strings.Contains(out, "adversarial engine disabled") {
		t.Errorf("disabled E19 rendered unexpectedly:\n%s", out)
	}
}

// TestE19Matrix is the acceptance run: on the flood-attack world the
// undefended cell must show legitimate allocation failures, the
// token-bucket cell must recover measurably, and the whole matrix must
// be deterministic across worker counts.
func TestE19Matrix(t *testing.T) {
	sc, err := internet.Lookup("flood-attack")
	if err != nil {
		t.Fatal(err)
	}
	// The replay population is the campaign-exercised one (like E18),
	// so the matrix needs the measurement phase run, not just a built
	// world.
	w := internet.Build(sc)
	w.RunCrawl(internet.DefaultCrawlOptions())
	w.RunNetalyzr()
	ar := AnalyzeAdversarial(w, 4, 0)
	if !ar.Enabled || len(ar.Cells) != 5 {
		t.Fatalf("matrix incomplete: %+v", ar)
	}
	base := ar.Cell("baseline (no attack)")
	und := ar.Cell("flood undefended")
	tb := ar.Cell("flood + token-bucket")
	ev := ar.Cell("flood + evict-oldest")
	if base == nil || und == nil || tb == nil || ev == nil {
		t.Fatalf("missing matrix cells: %+v", ar.Cells)
	}
	if base.Adv.Enabled || base.Adv.AttackerAttempts != 0 {
		t.Fatalf("baseline cell ran adversaries: %+v", base.Adv)
	}
	if und.LegitFailRate <= 0 {
		t.Fatalf("undefended flood caused no legit collateral: %+v", und)
	}
	if und.LegitFailRate <= base.LegitFailRate {
		t.Errorf("flood did not worsen the baseline failure rate: %.4f vs %.4f",
			und.LegitFailRate, base.LegitFailRate)
	}
	if tb.Adv.RateLimited == 0 || tb.LegitFailRate >= und.LegitFailRate {
		t.Errorf("token bucket did not recover: defended %.4f (rate-limited %d) vs undefended %.4f",
			tb.LegitFailRate, tb.Adv.RateLimited, und.LegitFailRate)
	}
	if ev.Adv.Evictions == 0 {
		t.Errorf("eviction cell never evicted: %+v", ev.Adv)
	}
	if und.Adv.ScannerProbes == 0 || und.Adv.ScannerBlocked == 0 {
		t.Errorf("scanner idle in undefended cell: %+v", und.Adv)
	}

	if again := AnalyzeAdversarial(w, 1, 0); !reflect.DeepEqual(ar, again) {
		t.Fatal("E19 matrix differs across worker counts")
	}

	b := &Bundle{Adversarial: ar}
	out := b.E19()
	for _, want := range []string{"flood undefended", "flood + token-bucket", "recovery: token bucket"} {
		if !strings.Contains(out, want) {
			t.Errorf("E19 render missing %q:\n%s", want, out)
		}
	}
	p := ar.Pressure()
	if !p.Enabled || p.UndefendedLegitFailRate != und.LegitFailRate || p.DefendedLegitFailRate != tb.LegitFailRate {
		t.Errorf("pressure summary inconsistent: %+v", p)
	}
}
