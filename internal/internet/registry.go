package internet

import (
	"fmt"
	"sort"
	"time"

	"cgn/internal/asdb"
	"cgn/internal/nat"
	"cgn/internal/traffic"
)

// builders maps scenario names to their constructors. Registered at init
// and read-only afterwards, so concurrent Lookup calls are safe.
var builders = map[string]func() Scenario{
	"paper":             Paper,
	"small":             Small,
	"large":             Large,
	"cellular-heavy":    CellularHeavy,
	"nat444-dense":      NAT444Dense,
	"sparse-cgn":        SparseCGN,
	"port-starved":      PortStarved,
	"mobile-churn":      MobileChurn,
	"enterprise-block":  EnterpriseBlock,
	"p2p-dense":         P2PDense,
	"diurnal-week":      DiurnalWeek,
	"mobile-churn-week": MobileChurnWeek,
	"flood-attack":      FloodAttack,
	"flood-defended":    FloodDefended,
	"pool-outage":       PoolOutage,
}

// Lookup resolves a scenario by registry name.
func Lookup(name string) (Scenario, error) {
	b, ok := builders[name]
	if !ok {
		return Scenario{}, fmt.Errorf("internet: unknown scenario %q (known: %v)", name, Names())
	}
	return b(), nil
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CellularHeavy returns a mobile-carrier-dominated world: few eyeball
// ASes, many cellular ones, near-universal cellular CGN and a larger
// share of carriers deploying routable space internally (the Figure 7(b)
// tail). It stresses the Netalyzr address-classification pipeline, which
// is the only method that covers cellular networks.
func CellularHeavy() Scenario {
	sc := Small()
	sc.Regions = map[asdb.RIR]RegionMix{
		asdb.AFRINIC: {Eyeball: 1, Cellular: 4},
		asdb.APNIC:   {Eyeball: 2, Cellular: 6},
		asdb.ARIN:    {Eyeball: 1, Cellular: 5},
		asdb.LACNIC:  {Eyeball: 1, Cellular: 4},
		asdb.RIPE:    {Eyeball: 2, Cellular: 6},
	}
	for r := range sc.CellularCGNProb {
		sc.CellularCGNProb[r] = 0.95
	}
	sc.NLCellSessions = Span{10, 18}
	sc.RoutableInternalFrac = 0.30
	sc.CellPublicMixFrac = 0.40
	return sc
}

// NAT444Dense returns an eyeball world where CGN deployment is the rule,
// not the exception: most subscribers sit behind a home NAT *and* a
// carrier NAT (the NAT444 topology), with stacked home NATs more common
// than in the paper world. It stresses the BitTorrent leak detector —
// hairpinned internal endpoints are its only signal — and the top-block
// filter that separates CPE LANs from CGN realms.
func NAT444Dense() Scenario {
	sc := Small()
	sc.Regions = map[asdb.RIR]RegionMix{
		asdb.AFRINIC: {Eyeball: 3, Cellular: 1},
		asdb.APNIC:   {Eyeball: 5, Cellular: 1},
		asdb.ARIN:    {Eyeball: 4, Cellular: 1},
		asdb.LACNIC:  {Eyeball: 3, Cellular: 1},
		asdb.RIPE:    {Eyeball: 5, Cellular: 1},
	}
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.60
	}
	// NAT444 proper: subscribers keep their home NAT, so bare (bridged)
	// attachment is rare and double NATs are common.
	sc.BareFrac = 0.15
	sc.DoubleNATFrac = 0.15
	sc.MixedRealmFrac = 0.65
	sc.BTPeers = Span{24, 40}
	return sc
}

// SparseCGN returns a world where CGN is rare everywhere — the hardest
// regime for precision, since nearly every AS is a potential false
// positive and VPN-style leak noise is as loud as the real signal.
func SparseCGN() Scenario {
	sc := Small()
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.05
	}
	for r := range sc.CellularCGNProb {
		sc.CellularCGNProb[r] = 0.30
	}
	sc.VPNPairs = 4
	return sc
}

// PortStarved returns a world of under-provisioned CGNs: most eyeball
// ASes deploy CGN, but every realm squeezes its subscribers through one
// or two external IPs, a few hundred allocatable ports per IP and a tight
// per-subscriber quota. This is the §6.2 saturation regime — port
// utilization rides the ceiling and allocation failures (both space and
// quota exhaustion) become a first-class outcome E17 can plot.
func PortStarved() Scenario {
	sc := Small()
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.7
	}
	sc.ChunkASFrac = 0 // pure port-space pressure, no block allocators
	sc.BTPeers = Span{24, 40}
	sc.CGNPoolSize = Span{1, 2}
	sc.CGNPortSpan = 512
	sc.CGNPortQuota = 16
	return sc
}

// MobileChurn returns a cellular world tuned for mapping churn: the
// carrier mix of CellularHeavy with aggressively short CGN idle timeouts
// and small pools, so mappings expire and ports recycle constantly
// ("Tracking the Big NAT" measures exactly this regime on real carriers).
// It stresses the expiry path — heap-based Sweep — and the recycling
// consistency of the port allocator.
func MobileChurn() Scenario {
	sc := CellularHeavy()
	sc.NLCellSessions = Span{14, 24}
	sc.CGNUDPTimeout = 15 * time.Second
	sc.CGNPoolSize = Span{1, 1}
	sc.CGNPortSpan = 1024
	sc.CGNPortQuota = 8
	return sc
}

// EnterpriseBlock returns a world where block allocation is the rule:
// every CGN AS assigns fixed per-subscriber chunks (§6.2 / Fig 8c) out of
// a deliberately narrow port space on a single external IP. Capacity is
// then quantized — an IP holds only span/chunk subscribers — so late
// subscribers exhaust the chunk table outright, the provisioning
// trade-off the paper derives (64 users per IP at 1K chunks).
func EnterpriseBlock() Scenario {
	sc := Small()
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.5
	}
	sc.ChunkASFrac = 1.0
	sc.BTPeers = Span{20, 32}
	sc.CGNPoolSize = Span{1, 1}
	sc.CGNPortSpan = 16384
	return sc
}

// P2PDense returns a forwarding-heavy world: most eyeball ASes deploy
// CGN, swarms are large and concentrated behind carrier NATs (many bare
// peers, frequent two-client homes) and source-preserving hairpinning is
// near-universal, so the campaign is dominated by peer-to-peer packet
// forwarding — long ascents through deep CGNs, hairpin turns, intra-realm
// chatter — rather than by analysis. It exists to stress simnet's
// forwarding walk; the sweep smoke and the cross-worker digest test
// include it so forwarding determinism is witnessed under parallelism.
func P2PDense() Scenario {
	sc := Small()
	sc.Regions = map[asdb.RIR]RegionMix{
		asdb.AFRINIC: {Eyeball: 2, Cellular: 1},
		asdb.APNIC:   {Eyeball: 4, Cellular: 1},
		asdb.ARIN:    {Eyeball: 3, Cellular: 1},
		asdb.LACNIC:  {Eyeball: 2, Cellular: 1},
		asdb.RIPE:    {Eyeball: 4, Cellular: 1},
	}
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.8
	}
	sc.LowVantageFrac = 0.1
	sc.BTPeers = Span{40, 64}
	sc.BareFrac = 0.60
	sc.HomePeerPairFrac = 0.50
	sc.HairpinPreserveFrac = 0.85
	sc.HairpinTranslateFrac = 0.10
	sc.MixedRealmFrac = 0.50
	return sc
}

// DiurnalWeek returns an eyeball-CGN world driven through a simulated
// week of subscriber traffic: seven diurnal periods of flow churn with a
// pronounced day/night swing and a heavy-hitter tail. It is the E18
// reference scenario — per-subscriber concurrent port usage sampled over
// time reproduces Figure 8's shape (max ≫ 99th percentile ≫ median) —
// and, because the traffic engine's output is folded into every report
// digest, the cross-worker determinism witness for the engine itself.
func DiurnalWeek() Scenario {
	sc := Small()
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.6
	}
	sc.BTPeers = Span{24, 40}
	sc.Traffic = traffic.Profile{
		Ticks:         7 * 288,
		DayTicks:      288,
		DiurnalAmp:    0.7,
		HeavyFrac:     0.06,
		LightFrac:     0.50,
		FlowsPerTick:  0.8,
		HeavyMult:     12,
		FlowHoldTicks: 4,
	}
	return sc
}

// MobileChurnWeek is the churn variant of mobile-churn: the same
// aggressively short carrier timeouts, tiny pools and tight quotas, now
// driven through a simulated week of diurnal traffic. With a 15 s idle
// timeout under a 30 s tick every unrefreshed mapping dies between
// ticks, so the expiry schedule and the port recycler run at full churn while
// heavy hitters slam into the per-subscriber quota — the regime
// "Tracking the Big NAT" measures on real carriers.
func MobileChurnWeek() Scenario {
	sc := MobileChurn()
	sc.Traffic = traffic.Profile{
		Ticks:         7 * 288,
		DayTicks:      288,
		DiurnalAmp:    0.5,
		HeavyFrac:     0.08,
		LightFrac:     0.40,
		FlowsPerTick:  0.8,
		HeavyMult:     10,
		FlowHoldTicks: 3,
	}
	return sc
}

// FloodAttack returns the undefended adversarial world: tight CGN port
// provisioning (the PortStarved regime) with a fifth of every realm's
// subscribers running a port-allocation flood and an external scanner
// tickling the inbound filter. No heavy-hitter class — rate separation
// between legitimate users and flooders is what the defended variant's
// limiter discriminates on — and no defenses, so the flood's collateral
// damage on legitimate subscribers (E19's undefended column) is maximal.
func FloodAttack() Scenario {
	sc := Small()
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.6
	}
	sc.BTPeers = Span{24, 40}
	sc.CGNPoolSize = Span{1, 1}
	sc.CGNPortSpan = 256
	// Pinned above the 30 s tick: drawn carrier timeouts can undercut
	// the tick, which would turn every legitimate refresh into a fresh
	// allocation and charge it against the defended cells' token
	// buckets — the defense would then hurt the users it protects.
	sc.CGNUDPTimeout = 65 * time.Second
	sc.Traffic = traffic.Profile{
		Ticks:                288,
		DayTicks:             288,
		DiurnalAmp:           0.5,
		LightFrac:            0.45,
		AttackerFrac:         0.2,
		AttackerFlowsPerTick: 12,
		ScannerProbesPerTick: 2,
	}
	return sc
}

// FloodDefended is FloodAttack with both defenses armed: a
// per-subscriber token-bucket allocation limiter pitched above the
// legitimate rate ceiling but far under the flood, and oldest-idle
// eviction instead of refusal on port exhaustion. E19's defended columns
// show the legitimate failure rate recovering against FloodAttack's.
func FloodDefended() Scenario {
	sc := FloodAttack()
	sc.CGNAllocRatePerSec = 0.06
	sc.CGNAllocBurst = 8
	sc.CGNEviction = nat.EvictOldestIdle
	return sc
}

// PoolOutage returns the infrastructure-fault world: widely deployed
// eyeball CGN squeezed through small external pools and a narrow port
// span, driven through a diurnal day of traffic while the E22 fault
// schedule takes half of every pool dark mid-run and reboots the
// engines in a separate cell. With only a handful of lanes per realm
// and little port headroom, losing lanes translates directly into
// allocation failures — the degradation-and-recovery curve E22 plots —
// and restoring them shows the failure rate falling back to baseline.
func PoolOutage() Scenario {
	sc := Small()
	for r := range sc.EyeballCGNProb {
		sc.EyeballCGNProb[r] = 0.6
	}
	sc.BTPeers = Span{24, 40}
	sc.CGNPoolSize = Span{2, 4}
	sc.CGNPortSpan = 256
	// Pinned above the 30 s tick (see FloodAttack): a drawn timeout
	// under the tick would turn every refresh into a fresh allocation
	// and drown the fault signal in expiry churn.
	sc.CGNUDPTimeout = 65 * time.Second
	sc.Traffic = traffic.Profile{
		Ticks:      288,
		DayTicks:   288,
		DiurnalAmp: 0.5,
		HeavyFrac:  0.05,
		LightFrac:  0.45,
	}
	sc.Faults = FaultSpec{
		LaneFracs:   []float64{0.25, 0.5},
		OutageFracs: []float64{1.0 / 12, 1.0 / 4},
		Restart:     true,
	}
	return sc
}

// frac01 names one [0,1] fraction field for validation.
type frac01 struct {
	name string
	v    float64
}

// Validate checks that the scenario's parameters are internally
// consistent: population counts non-negative, probabilities and fractions
// inside [0,1], spans ordered. A Scenario built by hand (CLI flags,
// config files, sweep generators) should be validated before Build, which
// panics or silently misbehaves on nonsense inputs.
func (sc Scenario) Validate() error {
	if len(sc.Regions) == 0 {
		return fmt.Errorf("internet: scenario has no regions")
	}
	for region, mix := range sc.Regions {
		if mix.Eyeball < 0 || mix.Cellular < 0 {
			return fmt.Errorf("internet: region %s has negative AS counts (%d eyeball, %d cellular)",
				region, mix.Eyeball, mix.Cellular)
		}
	}
	if sc.Transit < 0 || sc.Content < 0 {
		return fmt.Errorf("internet: negative transit (%d) or content (%d) count", sc.Transit, sc.Content)
	}
	if sc.VPNPairs < 0 {
		return fmt.Errorf("internet: negative VPNPairs %d", sc.VPNPairs)
	}
	for name, probs := range map[string]map[asdb.RIR]float64{
		"EyeballCGNProb":  sc.EyeballCGNProb,
		"CellularCGNProb": sc.CellularCGNProb,
	} {
		for region, p := range probs {
			if p < 0 || p > 1 {
				return fmt.Errorf("internet: %s[%s] = %v outside [0,1]", name, region, p)
			}
		}
	}
	for _, f := range []frac01{
		{"LowVantageFrac", sc.LowVantageFrac},
		{"BareFrac", sc.BareFrac},
		{"HomePeerPairFrac", sc.HomePeerPairFrac},
		{"STUNFrac", sc.STUNFrac},
		{"TTLFrac", sc.TTLFrac},
		{"UPnPFrac", sc.UPnPFrac},
		{"DoubleNATFrac", sc.DoubleNATFrac},
		{"MixedRealmFrac", sc.MixedRealmFrac},
		{"HairpinPreserveFrac", sc.HairpinPreserveFrac},
		{"HairpinTranslateFrac", sc.HairpinTranslateFrac},
		{"RoutableInternalFrac", sc.RoutableInternalFrac},
		{"CellPublicMixFrac", sc.CellPublicMixFrac},
		{"ChunkASFrac", sc.ChunkASFrac},
		{"NonValidatingFrac", sc.NonValidatingFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("internet: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	if s := sc.HairpinPreserveFrac + sc.HairpinTranslateFrac; s > 1 {
		return fmt.Errorf("internet: hairpin fractions sum to %v > 1", s)
	}
	for _, s := range []struct {
		name string
		span Span
	}{
		{"BTPeers", sc.BTPeers},
		{"BTPeersLow", sc.BTPeersLow},
		{"NLSessions", sc.NLSessions},
		{"NLCellSessions", sc.NLCellSessions},
		{"NLSessionsLow", sc.NLSessionsLow},
	} {
		if s.span.Min < 0 || s.span.Max < s.span.Min {
			return fmt.Errorf("internet: span %s = [%d,%d] is not ordered and non-negative",
				s.name, s.span.Min, s.span.Max)
		}
	}
	// The NAT engine needs at least two allocatable ports (PortLo < PortHi)
	// and its range tops out at [1024, 65535].
	if sc.CGNPortSpan != 0 && (sc.CGNPortSpan < 2 || sc.CGNPortSpan > 64512) {
		return fmt.Errorf("internet: CGNPortSpan = %d, want 0 or within [2, 64512]", sc.CGNPortSpan)
	}
	if sc.CGNPortQuota < 0 {
		return fmt.Errorf("internet: negative CGNPortQuota %d", sc.CGNPortQuota)
	}
	if sc.CGNUDPTimeout < 0 {
		return fmt.Errorf("internet: negative CGNUDPTimeout %v", sc.CGNUDPTimeout)
	}
	if sc.CGNAllocRatePerSec < 0 {
		return fmt.Errorf("internet: negative CGNAllocRatePerSec %v", sc.CGNAllocRatePerSec)
	}
	if sc.CGNAllocBurst < 0 {
		return fmt.Errorf("internet: negative CGNAllocBurst %d", sc.CGNAllocBurst)
	}
	if sc.CGNEviction != nat.EvictNone && sc.CGNEviction != nat.EvictOldestIdle {
		return fmt.Errorf("internet: unknown CGNEviction policy %d", sc.CGNEviction)
	}
	if ps := sc.CGNPoolSize; ps != (Span{}) && (ps.Min < 1 || ps.Max < ps.Min) {
		return fmt.Errorf("internet: CGNPoolSize = [%d,%d], want a positive ordered span",
			ps.Min, ps.Max)
	}
	if err := sc.Traffic.Validate(); err != nil {
		return fmt.Errorf("internet: Traffic profile: %w", err)
	}
	if err := sc.Observation.validate(); err != nil {
		return err
	}
	if err := sc.Faults.validate(); err != nil {
		return err
	}
	return nil
}

// validate checks the E22 fault spec.
func (f FaultSpec) validate() error {
	start := f.StartFrac
	if start == 0 {
		start = 0.25
	}
	if f.StartFrac < 0 || f.StartFrac >= 1 {
		return fmt.Errorf("internet: Faults.StartFrac = %v outside [0,1)", f.StartFrac)
	}
	last := 0.0
	for _, lf := range f.LaneFracs {
		if lf <= 0 || lf > 1 {
			return fmt.Errorf("internet: Faults.LaneFracs entry %v outside (0,1]", lf)
		}
		if lf <= last {
			return fmt.Errorf("internet: Faults.LaneFracs must ascend, got %v", f.LaneFracs)
		}
		last = lf
	}
	last = 0.0
	for _, of := range f.OutageFracs {
		if of <= 0 || start+of >= 1 {
			return fmt.Errorf("internet: Faults.OutageFracs entry %v: outage [%v, %v) leaves no post-restore run to observe recovery in", of, start, start+of)
		}
		if of <= last {
			return fmt.Errorf("internet: Faults.OutageFracs must ascend, got %v", f.OutageFracs)
		}
		last = of
	}
	if f.PortSpan != 0 && (f.PortSpan < 2 || f.PortSpan > 64512) {
		return fmt.Errorf("internet: Faults.PortSpan = %d, want 0 or within [2, 64512]", f.PortSpan)
	}
	return nil
}

// validate checks the E21 observation spec.
func (o ObservationSpec) validate() error {
	if o.Days < 0 {
		return fmt.Errorf("internet: Observation.Days = %d, want >= 0", o.Days)
	}
	if o.DayTicks < 0 || o.SubscribersPerRealm < 0 || o.LatentCarriers < 0 || o.ThresholdPer < 0 {
		return fmt.Errorf("internet: negative Observation field (DayTicks %d, SubscribersPerRealm %d, LatentCarriers %d, ThresholdPer %d)",
			o.DayTicks, o.SubscribersPerRealm, o.LatentCarriers, o.ThresholdPer)
	}
	last := 0
	for _, w := range o.Windows {
		if w <= last {
			return fmt.Errorf("internet: Observation.Windows must be positive and ascending, got %v", o.Windows)
		}
		last = w
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"VantageProb", o.VantageProb}, {"NoiseProb", o.NoiseProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("internet: Observation.%s = %v outside [0,1]", p.name, p.v)
		}
	}
	return nil
}
