package report

import (
	"reflect"
	"strings"
	"testing"

	"cgn/internal/internet"
)

// TestE22Disabled: a scenario that schedules no faults renders the
// disabled notice and leaves the dataset zero, so zero-fault worlds are
// untouched by the feature.
func TestE22Disabled(t *testing.T) {
	b := bundle(t)
	if b.Faults.Enabled {
		t.Fatalf("small scenario schedules no faults but E22 ran: %+v", b.Faults)
	}
	if out := b.E22(); !strings.Contains(out, "fault engine disabled") {
		t.Errorf("disabled E22 rendered unexpectedly:\n%s", out)
	}
	if p := b.Faults.Pressure(); p.Enabled {
		t.Errorf("disabled run produced pressure: %+v", p)
	}
}

// TestE22DegradationAndRecovery is the acceptance run: on the
// pool-outage world the severity grid must show a failure rate during
// the outage at or above the pre-fault baseline, recovery within the
// run after restoration, disrupted flows on the fault transitions, and
// byte-identical results at any workers x shards.
func TestE22DegradationAndRecovery(t *testing.T) {
	sc, err := internet.Lookup("pool-outage")
	if err != nil {
		t.Fatal(err)
	}
	w := internet.Build(sc)
	w.RunCrawl(internet.DefaultCrawlOptions())
	w.RunNetalyzr()
	fr := AnalyzeFaults(w, 4, 2)
	// baseline + LaneFracs x OutageFracs grid + restart row.
	wantCells := 1 + len(sc.Faults.LaneFracs)*len(sc.Faults.OutageFracs) + 1
	if !fr.Enabled || len(fr.Cells) != wantCells {
		t.Fatalf("fault grid incomplete (want %d cells): %+v", wantCells, fr)
	}
	base := fr.Cell("baseline (no faults)")
	if base == nil || base.FaultEvents != 0 || len(base.Deg.Attempts) != 0 {
		t.Fatalf("baseline row ran faults: %+v", base)
	}

	h := fr.Harshest()
	if h == nil || h.OutageTicks == 0 {
		t.Fatalf("no harshest outage cell: %+v", fr.Cells)
	}
	for _, c := range fr.Cells[1:] {
		if c.FaultEvents == 0 {
			t.Errorf("fault row %q applied no transitions: %+v", c.Name, c)
		}
		if c.DegradedRate < c.BaselineRate {
			t.Errorf("fault row %q degraded below its baseline: %.4f vs %.4f",
				c.Name, c.DegradedRate, c.BaselineRate)
		}
	}
	if h.DegradedRate <= h.BaselineRate {
		t.Errorf("harshest outage did not degrade: during %.4f vs pre %.4f",
			h.DegradedRate, h.BaselineRate)
	}
	if h.RecoveryTicks < 0 {
		t.Errorf("harshest cell never recovered within the run: %+v", h)
	}
	var disrupted uint64
	for _, c := range fr.Cells {
		disrupted += c.Disrupted
	}
	if disrupted == 0 {
		t.Error("no flows disrupted by any fault transition")
	}
	if rs := fr.Cell("engine restart (reboot)"); rs == nil || !rs.Restart {
		t.Errorf("restart row missing: %+v", fr.Cells)
	}

	// Workers and shards are pure resource knobs: the run must be
	// identical at any combination.
	for _, alt := range []struct{ workers, shards int }{{1, 1}, {3, 5}} {
		if again := AnalyzeFaults(w, alt.workers, alt.shards); !reflect.DeepEqual(fr, again) {
			t.Fatalf("E22 differs at workers=%d shards=%d", alt.workers, alt.shards)
		}
	}

	b := &Bundle{Faults: fr}
	out := b.E22()
	for _, want := range []string{
		"baseline (no faults)", "engine restart (reboot)",
		"outage window ticks", "recovery threshold",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("E22 render missing %q:\n%s", want, out)
		}
	}

	p := fr.Pressure()
	if !p.Enabled || p.BaselineFailRate != h.BaselineRate ||
		p.OutageFailRate != h.DegradedRate || p.RecoveryTicks != h.RecoveryTicks ||
		p.Disrupted != disrupted {
		t.Errorf("pressure summary inconsistent with harshest cell: %+v vs %+v", p, h)
	}
}
