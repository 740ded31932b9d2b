// Package internet generates synthetic Internets: an AS-level population
// with RIR regions and eyeball/cellular classes, per-AS ground-truth CGN
// deployments drawn from the marginals the paper reports, packet-level
// topology (home LANs, ISP-internal realms, NAT devices on path), a
// BitTorrent swarm and Netalyzr vantage points. The detection pipelines
// then run against this world exactly as they ran against the real
// Internet — and, unlike the paper, can be scored against ground truth.
package internet

import (
	"time"

	"cgn/internal/asdb"
	"cgn/internal/fleet"
	"cgn/internal/nat"
	"cgn/internal/traffic"
)

// RegionMix sets one region's AS counts.
type RegionMix struct {
	Eyeball  int
	Cellular int
}

// Span is an inclusive [Min,Max] integer draw.
type Span struct {
	Min, Max int
}

func (s Span) draw(r intner) int {
	if s.Max <= s.Min {
		return s.Min
	}
	return s.Min + r.Intn(s.Max-s.Min+1)
}

type intner interface{ Intn(int) int }

// Scenario parameterizes world generation.
type Scenario struct {
	Seed int64

	// Regions sets eyeball/cellular AS counts per RIR; Transit and
	// Content pad the routed-AS population.
	Regions map[asdb.RIR]RegionMix
	Transit int
	Content int

	// EyeballCGNProb / CellularCGNProb are ground-truth deployment
	// probabilities per region (§5 / Figure 6 shapes).
	EyeballCGNProb  map[asdb.RIR]float64
	CellularCGNProb map[asdb.RIR]float64

	// LowVantageFrac of eyeball ASes get almost no vantage points,
	// reproducing the paper's ~60% eyeball coverage.
	LowVantageFrac float64

	// BTPeers is the BitTorrent peer count per well-covered eyeball AS;
	// BTPeersLow applies to low-vantage ASes.
	BTPeers    Span
	BTPeersLow Span
	// BareFrac is the share of CGN-ISP BitTorrent peers attached without
	// a home NAT (modem/bridge mode) — the population whose internal
	// endpoints spread via hairpinning.
	BareFrac float64
	// HomePeerPairFrac is the share of homes hosting two BitTorrent
	// clients (the LAN-multicast leak source).
	HomePeerPairFrac float64

	// NLSessions / NLCellSessions are Netalyzr session counts per
	// non-cellular / cellular AS; NLSessionsLow for low-vantage ASes.
	NLSessions     Span
	NLCellSessions Span
	NLSessionsLow  Span
	// STUNFrac / TTLFrac select which sessions run the heavier subtests.
	STUNFrac, TTLFrac float64
	// UPnPFrac is the share of CPEs answering UPnP (the paper resolved
	// IPcpe for ~40% of sessions).
	UPnPFrac float64
	// DoubleNATFrac is the share of homes with a second, stacked home
	// NAT (exercises the top-block filter).
	DoubleNATFrac float64

	// MixedRealmFrac is the share of CGN ASes with two independently
	// configured CGN realms (distributed deployments -> mixed per-AS
	// port strategies, Fig 9's right side).
	MixedRealmFrac float64
	// HairpinPreserveFrac / HairpinTranslateFrac set CGN hairpin modes
	// (the rest hairpin off). Source-preserving hairpinning gates the
	// BitTorrent leak signal.
	HairpinPreserveFrac  float64
	HairpinTranslateFrac float64

	// RoutableInternalFrac of cellular CGNs use routable space
	// internally (Fig 7b).
	RoutableInternalFrac float64
	// CellPublicMixFrac of cellular CGN ASes assign a share of devices
	// public addresses ("mixed" assignment, §4.2).
	CellPublicMixFrac float64

	// ChunkASFrac of CGN ASes use chunk-based random port allocation.
	ChunkASFrac float64

	// VPNPairs injects cross-AS leaked internal contacts (VPN noise the
	// exclusive-leak filter must remove).
	VPNPairs int

	// NonValidatingFrac is the share of BitTorrent peers violating the
	// BEP-5 validation discipline (the paper measured ~1.3%); the A02
	// ablation sweeps it to show why the discipline matters.
	NonValidatingFrac float64

	// Port-provisioning knobs (§6.2 and the E17 port-pressure analysis).
	// All default to zero, which preserves the historical per-realm draws.

	// CGNPortSpan, when positive, narrows every CGN realm's allocatable
	// external port range to [1024, 1024+CGNPortSpan-1], modeling
	// under-provisioned deployments that saturate under load.
	CGNPortSpan int
	// CGNPortQuota, when positive, caps the external ports each
	// subscriber may hold on a CGN realm (per-subscriber block
	// provisioning; exceeding it yields nat.DropPortQuota).
	CGNPortQuota int
	// CGNPoolSize, when non-zero, overrides the external-IP pool size
	// draw per CGN realm. Small pools push the customers-per-external-IP
	// ratio up — the multiplexing axis of Figure 8.
	CGNPoolSize Span
	// CGNUDPTimeout, when positive, pins every CGN realm's UDP mapping
	// timeout instead of drawing it, modeling aggressive idle-timeout
	// configurations ("Tracking the Big NAT" reports timeouts down to
	// tens of seconds on mobile carriers) that maximize mapping churn.
	CGNUDPTimeout time.Duration

	// Defense knobs (the E19 attack x defense matrix). All default to
	// zero — no rate limiter, refuse on allocation failure — which is
	// the undefended deployment every prior scenario modeled.

	// CGNAllocRatePerSec, when positive, arms every CGN realm's
	// per-subscriber token-bucket allocation rate limiter
	// (nat.Config.AllocRatePerSec); CGNAllocBurst sets the bucket depth
	// (0 takes the engine default).
	CGNAllocRatePerSec float64
	CGNAllocBurst      int
	// CGNEviction selects what a CGN realm does when port allocation
	// fails: refuse the flow (nat.EvictNone, the default) or evict the
	// oldest idle mapping and retry (nat.EvictOldestIdle).
	CGNEviction nat.EvictionPolicy

	// Traffic parameterizes the time-driven subscriber load engine
	// behind the E18 temporal analysis (§6.2 Figure 8): diurnal flow
	// arrivals, heavy-hitter mix, tick count. The zero profile disables
	// the engine; see traffic.Profile for the knobs and their defaults.
	Traffic traffic.Profile

	// Observation parameterizes the E21 longitudinal detection
	// experiment: the fleet engine replays the world's carrier NATs —
	// plus latent carriers that may deploy CGN mid-run — over months of
	// virtual time, and a windowed observer scores detection
	// precision/recall as a function of how long it watched. The zero
	// spec (Days == 0) disables the experiment.
	Observation ObservationSpec

	// Faults parameterizes the E22 fault-injection experiment: the
	// traffic engine replays the carrier NATs under scheduled pool
	// outages and engine restarts and measures the degradation-and-
	// recovery curve. The zero spec disables the experiment.
	Faults FaultSpec
}

// FaultSpec parameterizes the E22 fault-injection experiment. Each
// (LaneFrac, OutageFrac) pair of the severity grid becomes one replay
// cell: a scheduled outage takes that fraction of every realm's
// external pool dark for that fraction of the run, subscribers fail
// over to the surviving pool IPs, and the lanes restore. The replay is
// a fresh replica of every carrier NAT with its own seed stream — like
// E18 and E19 — so enabling it perturbs no other experiment. The pool
// lane of the sharded NAT engine is the fault's unit.
type FaultSpec struct {
	// LaneFracs are the pool fractions each severity column takes dark,
	// ascending; empty disables E22 (so does an empty OutageFracs).
	LaneFracs []float64
	// OutageFracs are the outage durations as fractions of the run,
	// ascending. StartFrac + OutageFrac must leave room for recovery to
	// be observed, so each must stay under 1 - StartFrac.
	OutageFracs []float64
	// StartFrac is the outage onset as a fraction of the run; 0 takes
	// the default 0.25.
	StartFrac float64
	// Restart adds one cell that reboots every realm's whole NAT engine
	// at the onset tick — all mapping state lost, flows re-establish
	// through the refresh fallback — with no lane outage.
	Restart bool
	// PortSpan, when positive, narrows every replayed realm's external
	// port range to [1024, 1024+PortSpan-1] for the fault replay only,
	// so the surviving pool runs near capacity and degradation is
	// measurable instead of absorbed by provisioning headroom. 0 keeps
	// each realm's own span.
	PortSpan int
}

// Enabled reports whether the scenario runs the fault-injection
// experiment.
func (f FaultSpec) Enabled() bool { return len(f.LaneFracs) > 0 && len(f.OutageFracs) > 0 }

// ObservationSpec parameterizes the E21 longitudinal observation
// experiment (internal/fleet). Deployment is a process, not a snapshot:
// carriers enable CGN mid-run, re-provision pools and churn
// subscribers, and the paper's longitudinal measurements ("Tracking the
// Big NAT") show detection confidence growing with observation
// duration. The spec sets the virtual horizon and the observer's
// sampling model; zero-valued fields other than Days take the fleet
// engine's defaults.
type ObservationSpec struct {
	// Days is the virtual horizon; 0 disables E21 entirely.
	Days int
	// DayTicks is the fleet tick resolution per virtual day (default
	// 48 — coarser than E18's 288, since the longitudinal experiment
	// trades intra-day detail for months of span).
	DayTicks int
	// SubscribersPerRealm caps the replayed population per carrier
	// (default 16), keeping months of virtual time affordable inside a
	// campaign.
	SubscribersPerRealm int
	// LatentCarriers is the number of carriers without day-zero CGN
	// observed alongside the world's real deployments — the timeline
	// enables CGN on most of them mid-run (late onset), the rest stay
	// ground-truth negatives. 0 draws a default from the world size.
	LatentCarriers int
	// ObservationConfig is the windowed observer: the windows to score
	// and the detector's sampling model and evidence threshold.
	fleet.ObservationConfig
}

// Enabled reports whether the scenario runs the longitudinal
// observation experiment.
func (o ObservationSpec) Enabled() bool { return o.Days > 0 }

// ApplyPortOverrides narrows the scenario's CGN port provisioning: a
// nonzero span or quota replaces the scenario's own setting. Both the
// cgnsim flags and the campaign sweep config funnel through here so the
// two modes cannot drift.
func (s *Scenario) ApplyPortOverrides(span, quota int) {
	if span != 0 {
		s.CGNPortSpan = span
	}
	if quota != 0 {
		s.CGNPortQuota = quota
	}
}

// Paper returns the default scenario: a scaled-down Internet whose
// marginals track the paper's findings. Roughly 400 ASes, 10k BitTorrent
// peers and 6k Netalyzr sessions — small enough to run in seconds, large
// enough for every table and figure to have signal.
func Paper() Scenario {
	return Scenario{
		Seed: 1,
		Regions: map[asdb.RIR]RegionMix{
			asdb.AFRINIC: {Eyeball: 40, Cellular: 12},
			asdb.APNIC:   {Eyeball: 52, Cellular: 14},
			asdb.ARIN:    {Eyeball: 48, Cellular: 12},
			asdb.LACNIC:  {Eyeball: 44, Cellular: 12},
			asdb.RIPE:    {Eyeball: 56, Cellular: 14},
		},
		Transit: 80,
		Content: 24,
		EyeballCGNProb: map[asdb.RIR]float64{
			asdb.AFRINIC: 0.09,
			asdb.APNIC:   0.28,
			asdb.ARIN:    0.12,
			asdb.LACNIC:  0.13,
			asdb.RIPE:    0.27,
		},
		CellularCGNProb: map[asdb.RIR]float64{
			asdb.AFRINIC: 0.67,
			asdb.APNIC:   0.95,
			asdb.ARIN:    0.92,
			asdb.LACNIC:  0.92,
			asdb.RIPE:    0.95,
		},
		LowVantageFrac:       0.35,
		BTPeers:              Span{32, 72},
		BTPeersLow:           Span{0, 6},
		BareFrac:             0.45,
		HomePeerPairFrac:     0.30,
		NLSessions:           Span{14, 36},
		NLCellSessions:       Span{6, 16},
		NLSessionsLow:        Span{0, 6},
		STUNFrac:             0.6,
		TTLFrac:              0.5,
		UPnPFrac:             0.75,
		DoubleNATFrac:        0.06,
		MixedRealmFrac:       0.55,
		HairpinPreserveFrac:  0.70,
		HairpinTranslateFrac: 0.20,
		RoutableInternalFrac: 0.10,
		CellPublicMixFrac:    0.35,
		ChunkASFrac:          0.10,
		VPNPairs:             3,
		NonValidatingFrac:    0.013,
		// One diurnal period of subscriber traffic so the temporal E18
		// analysis has signal on every default campaign; the week-long
		// runs live in the diurnal-week / mobile-churn-week scenarios.
		Traffic: traffic.Profile{
			Ticks:      288,
			DayTicks:   288,
			DiurnalAmp: 0.5,
			HeavyFrac:  0.05,
			LightFrac:  0.45,
		},
		// Eight weeks of longitudinal observation so the E21
		// duration-vs-recall curve has its full window ladder.
		Observation: ObservationSpec{Days: 56},
		// A pool-outage severity grid plus an engine-restart cell so the
		// E22 degradation-and-recovery curves have signal on every
		// default campaign. The replay narrows the port span (replica
		// NATs only — E17/E18 see the scenario's own provisioning) so
		// losing lanes actually pressures the survivors.
		Faults: FaultSpec{
			LaneFracs:   []float64{0.25, 0.5},
			OutageFracs: []float64{1.0 / 12, 1.0 / 4},
			Restart:     true,
			PortSpan:    384,
		},
	}
}

// Large returns a stress-scale scenario: roughly three times the Paper
// world. Campaigns take tens of seconds; useful for benchmarking the
// pipelines at depth and for tighter statistics on rare configurations
// (routable-internal carriers, chunked allocators).
func Large() Scenario {
	sc := Paper()
	sc.Regions = map[asdb.RIR]RegionMix{
		asdb.AFRINIC: {Eyeball: 120, Cellular: 36},
		asdb.APNIC:   {Eyeball: 156, Cellular: 42},
		asdb.ARIN:    {Eyeball: 144, Cellular: 36},
		asdb.LACNIC:  {Eyeball: 132, Cellular: 36},
		asdb.RIPE:    {Eyeball: 168, Cellular: 42},
	}
	sc.Transit = 240
	sc.Content = 72
	sc.VPNPairs = 9
	return sc
}

// Small returns a fast scenario for tests: a handful of ASes per class.
func Small() Scenario {
	sc := Paper()
	sc.Regions = map[asdb.RIR]RegionMix{
		asdb.AFRINIC: {Eyeball: 2, Cellular: 1},
		asdb.APNIC:   {Eyeball: 4, Cellular: 2},
		asdb.ARIN:    {Eyeball: 3, Cellular: 1},
		asdb.LACNIC:  {Eyeball: 2, Cellular: 1},
		asdb.RIPE:    {Eyeball: 4, Cellular: 2},
	}
	sc.Transit = 4
	sc.Content = 2
	sc.LowVantageFrac = 0.2
	sc.BTPeers = Span{16, 24}
	sc.NLSessions = Span{10, 16}
	sc.NLCellSessions = Span{5, 8}
	sc.VPNPairs = 1
	// The fault grid is Paper's headline; test worlds (and everything
	// derived from Small) stay fault-free so E22 only runs where a
	// scenario schedules it explicitly.
	sc.Faults = FaultSpec{}
	return sc
}

// Truth is the ground-truth record for one AS.
type Truth struct {
	ASN      uint32
	Cellular bool
	CGN      bool
	// Realms counts independent CGN realms (distributed deployments).
	Realms int
	// Ranges lists the internal ranges in use; RoutableInternal marks
	// cellular ASes using public space internally.
	Ranges           []string
	RoutableInternal bool
	// PortAllocs, MappingTypes, Poolings, Timeouts: one entry per realm.
	PortAllocs   []nat.PortAlloc
	MappingTypes []nat.MappingType
	Poolings     []nat.Pooling
	Timeouts     []time.Duration
	// ChunkSize is set when PortAllocs includes RandomChunk.
	ChunkSize int
	// HairpinModes per realm.
	HairpinModes []nat.HairpinMode
	// CGNDistance is the intended NAT distance from a bare subscriber.
	CGNDistance []int
}
