package internet

import (
	"strings"
	"testing"
	"time"

	"cgn/internal/asdb"
)

// TestRegisteredScenariosValidate: every scenario the registry serves
// must pass its own validation.
func TestRegisteredScenariosValidate(t *testing.T) {
	for _, name := range Names() {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %q does not validate: %v", name, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("definitely-not-registered"); err == nil {
		t.Error("Lookup of unknown scenario succeeded")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	for _, want := range []string{
		"paper", "small", "large", "cellular-heavy", "nat444-dense", "sparse-cgn",
		"port-starved", "mobile-churn", "enterprise-block", "p2p-dense",
		"diurnal-week", "mobile-churn-week",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

// TestValidateRejections drives Validate through each failure class.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		errPart string
	}{
		{"no regions", func(sc *Scenario) { sc.Regions = nil }, "no regions"},
		{"negative eyeball count", func(sc *Scenario) {
			sc.Regions[asdb.ARIN] = RegionMix{Eyeball: -1}
		}, "negative AS counts"},
		{"negative transit", func(sc *Scenario) { sc.Transit = -2 }, "negative transit"},
		{"negative vpn pairs", func(sc *Scenario) { sc.VPNPairs = -1 }, "VPNPairs"},
		{"probability above one", func(sc *Scenario) {
			sc.EyeballCGNProb[asdb.RIPE] = 1.5
		}, "outside [0,1]"},
		{"negative probability", func(sc *Scenario) {
			sc.CellularCGNProb[asdb.APNIC] = -0.1
		}, "outside [0,1]"},
		{"fraction above one", func(sc *Scenario) { sc.BareFrac = 1.2 }, "BareFrac"},
		{"negative fraction", func(sc *Scenario) { sc.ChunkASFrac = -0.5 }, "ChunkASFrac"},
		{"hairpin fractions exceed one", func(sc *Scenario) {
			sc.HairpinPreserveFrac = 0.7
			sc.HairpinTranslateFrac = 0.7
		}, "hairpin fractions"},
		{"inverted span", func(sc *Scenario) {
			sc.BTPeers = Span{Min: 10, Max: 2}
		}, "BTPeers"},
		{"negative span", func(sc *Scenario) {
			sc.NLSessions = Span{Min: -1, Max: 4}
		}, "NLSessions"},
		{"one-port span", func(sc *Scenario) { sc.CGNPortSpan = 1 }, "CGNPortSpan"},
		{"oversized port span", func(sc *Scenario) { sc.CGNPortSpan = 70000 }, "CGNPortSpan"},
		{"negative quota", func(sc *Scenario) { sc.CGNPortQuota = -1 }, "CGNPortQuota"},
		{"negative timeout", func(sc *Scenario) { sc.CGNUDPTimeout = -time.Second }, "CGNUDPTimeout"},
		{"zero-min pool", func(sc *Scenario) {
			sc.CGNPoolSize = Span{Min: 0, Max: 3}
		}, "CGNPoolSize"},
		{"negative traffic ticks", func(sc *Scenario) {
			sc.Traffic.Ticks = -1
		}, "Traffic profile"},
		{"traffic amp above one", func(sc *Scenario) {
			sc.Traffic.Ticks = 10
			sc.Traffic.DiurnalAmp = 2
		}, "DiurnalAmp"},
		{"negative observation days", func(sc *Scenario) { sc.Observation.Days = -1 }, "Observation.Days"},
		{"negative observation day ticks", func(sc *Scenario) { sc.Observation.DayTicks = -1 }, "DayTicks"},
		{"descending observation windows", func(sc *Scenario) {
			sc.Observation.Windows = []int{7, 3}
		}, "ascending"},
		{"vantage probability above one", func(sc *Scenario) { sc.Observation.VantageProb = 1.5 }, "VantageProb"},
		{"negative observation threshold", func(sc *Scenario) { sc.Observation.ThresholdPer = -1 }, "ThresholdPer"},
		{"fault onset at the end", func(sc *Scenario) { sc.Faults.StartFrac = 1 }, "StartFrac"},
		{"lane fraction above one", func(sc *Scenario) {
			sc.Faults.LaneFracs = []float64{1.5}
		}, "LaneFracs entry 1.5"},
		{"descending lane fractions", func(sc *Scenario) {
			sc.Faults.LaneFracs = []float64{0.5, 0.25}
		}, "LaneFracs must ascend"},
		{"outage past the run", func(sc *Scenario) {
			sc.Faults.OutageFracs = []float64{0.8}
		}, "post-restore"},
		{"descending outage fractions", func(sc *Scenario) {
			sc.Faults.OutageFracs = []float64{0.25, 0.1}
		}, "OutageFracs must ascend"},
		{"one-port fault span", func(sc *Scenario) { sc.Faults.PortSpan = 1 }, "Faults.PortSpan"},
	}
	for _, c := range cases {
		sc := Small()
		c.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errPart)
		}
	}
}
