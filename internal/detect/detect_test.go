package detect

import (
	"fmt"
	"testing"

	"cgn/internal/asdb"
	"cgn/internal/crawler"
	"cgn/internal/krpc"
	"cgn/internal/netaddr"
	"cgn/internal/netalyzr"
	"cgn/internal/routing"
)

func addr(s string) netaddr.Addr { return netaddr.MustParseAddr(s) }

func key(ip string, port uint16, idByte byte) crawler.PeerKey {
	var id krpc.NodeID
	for i := range id {
		id[i] = idByte
	}
	return crawler.PeerKey{EP: netaddr.EndpointOf(addr(ip), port), ID: id}
}

// buildDataset fabricates a crawl dataset:
//
//	AS 100: CGN pattern — 6 leaker IPs x 6 shared internal peers (10X)
//	AS 200: home pattern — 8 isolated leaker/internal pairs (192X)
//	AS 300: VPN noise — internal peer leaked from two ASes
func buildDataset() *crawler.Dataset {
	ds := crawler.NewDataset()
	var idSeq byte

	addQueried := func(asn uint32, ip string) crawler.PeerKey {
		idSeq++
		k := key(ip, 6881, idSeq)
		ds.Queried[k] = true
		ds.QueriedASN[k] = asn
		return k
	}

	// AS 100: clustered.
	var cgnInternals []crawler.PeerKey
	for i := 0; i < 6; i++ {
		idSeq++
		cgnInternals = append(cgnInternals, key(fmt.Sprintf("10.0.0.%d", i+1), 6881, idSeq))
	}
	for i := 0; i < 6; i++ {
		leaker := addQueried(100, fmt.Sprintf("198.51.100.%d", i+1))
		for _, internal := range cgnInternals {
			ds.Leaks = append(ds.Leaks, crawler.LeakRecord{
				Leaker: leaker, LeakerASN: 100, Internal: internal,
			})
		}
	}

	// AS 200: isolated.
	for i := 0; i < 8; i++ {
		leaker := addQueried(200, fmt.Sprintf("198.51.200.%d", i+1))
		idSeq++
		internal := key("192.168.1.2", uint16(7000+i), idSeq)
		ds.Leaks = append(ds.Leaks, crawler.LeakRecord{
			Leaker: leaker, LeakerASN: 200, Internal: internal,
		})
	}

	// AS 300 + AS 100 leak the same internal peer: VPN noise.
	idSeq++
	vpnInternal := key("172.16.0.9", 6881, idSeq)
	l300 := addQueried(300, "203.0.114.1")
	ds.Leaks = append(ds.Leaks, crawler.LeakRecord{Leaker: l300, LeakerASN: 300, Internal: vpnInternal})
	l100 := addQueried(100, "198.51.100.99")
	ds.Leaks = append(ds.Leaks, crawler.LeakRecord{Leaker: l100, LeakerASN: 100, Internal: vpnInternal})

	return ds
}

func btCfg() BTConfig {
	return BTConfig{MinPeersQueried: 1}
}

func TestBitTorrentClusterDetection(t *testing.T) {
	res := AnalyzeBitTorrent(buildDataset(), btCfg())

	as100 := res.PerAS[100]
	if as100 == nil || !as100.CGN {
		t.Fatalf("AS100 = %+v, want CGN-positive", as100)
	}
	cs := as100.Clusters[netaddr.Range10]
	if cs.LeakerIPs != 6 || cs.InternalIPs != 6 {
		t.Errorf("AS100 10X cluster = %dx%d, want 6x6", cs.LeakerIPs, cs.InternalIPs)
	}
	if len(as100.CGNRanges) != 1 || as100.CGNRanges[0] != netaddr.Range10 {
		t.Errorf("AS100 ranges = %v", as100.CGNRanges)
	}

	as200 := res.PerAS[200]
	if as200 == nil || as200.CGN {
		t.Fatalf("AS200 = %+v, want negative (isolated leaks)", as200)
	}
	// Isolated home leaks: every household leaks only its own internal
	// peer. All households reuse the device address 192.168.1.2, but the
	// graph keys vertices by full peer identity, so the components stay
	// at one leaker IP each.
	cs200 := as200.Clusters[netaddr.Range192]
	if cs200.LeakerIPs != 1 {
		t.Errorf("AS200 largest cluster has %d leaker IPs, want 1", cs200.LeakerIPs)
	}
	if cs200.Positive(btCfg()) {
		t.Errorf("AS200 cluster %dx%d crossed the boundary", cs200.LeakerIPs, cs200.InternalIPs)
	}
}

func TestVPNExclusion(t *testing.T) {
	res := AnalyzeBitTorrent(buildDataset(), btCfg())
	if res.ExcludedVPN != 1 {
		t.Errorf("ExcludedVPN = %d, want 1", res.ExcludedVPN)
	}
	// The VPN-leaked 172X peer must not appear in any cluster.
	for asn, as := range res.PerAS {
		if cs, ok := as.Clusters[netaddr.Range172]; ok && cs.InternalIPs > 0 {
			t.Errorf("AS%d has 172X cluster %+v despite VPN exclusion", asn, cs)
		}
	}
}

func TestBTCoverageThreshold(t *testing.T) {
	ds := buildDataset()
	res := AnalyzeBitTorrent(ds, BTConfig{MinPeersQueried: 7})
	// AS100 has 7 queried peers (6 leakers + 1 VPN co-leaker), AS200 has
	// 8, AS300 has 2.
	covered := res.CoveredASes()
	if len(covered) != 2 || covered[0] != 100 || covered[1] != 200 {
		t.Errorf("covered = %v, want [100 200]", covered)
	}
	if pos := res.PositiveASes(); len(pos) != 1 || pos[0] != 100 {
		t.Errorf("positive = %v, want [100]", pos)
	}
}

func TestClusterStatBoundary(t *testing.T) {
	cfg := BTConfig{}
	cases := []struct {
		l, i int
		want bool
	}{
		{5, 5, true}, {4, 5, false}, {5, 4, false}, {100, 100, true}, {0, 0, false},
	}
	for _, c := range cases {
		cs := ClusterStat{LeakerIPs: c.l, InternalIPs: c.i}
		if cs.Positive(cfg) != c.want {
			t.Errorf("(%d,%d).Positive = %v, want %v", c.l, c.i, cs.Positive(cfg), c.want)
		}
	}
}

func newGlobal() *routing.Global {
	g := routing.NewGlobal()
	g.Announce(netaddr.MustParsePrefix("198.51.100.0/24"), 100)
	g.Announce(netaddr.MustParsePrefix("203.0.113.0/24"), 400)
	// 1.0.0.0/8 is routed by someone else; 25.0.0.0/8 is not routed.
	g.Announce(netaddr.MustParsePrefix("1.0.0.0/8"), 900)
	return g
}

func cellSession(asn uint32, dev, pub string) netalyzr.Session {
	return netalyzr.Session{ASN: asn, Cellular: true, IPdev: addr(dev), IPpub: addr(pub)}
}

func TestCellularDetection(t *testing.T) {
	g := newGlobal()
	var sessions []netalyzr.Session
	// AS 1: all translated (10X IPdev).
	for i := 0; i < 6; i++ {
		sessions = append(sessions, cellSession(1, fmt.Sprintf("10.0.0.%d", i+1), "198.51.100.9"))
	}
	// AS 2: all public, no translation.
	for i := 0; i < 6; i++ {
		dev := fmt.Sprintf("203.0.113.%d", i+1)
		sessions = append(sessions, cellSession(2, dev, dev))
	}
	// AS 3: unrouted public space used internally (25/8).
	for i := 0; i < 6; i++ {
		sessions = append(sessions, cellSession(3, fmt.Sprintf("25.0.0.%d", i+1), "198.51.100.10"))
	}
	// AS 4: routed-elsewhere space used internally (1/8): routed mismatch.
	for i := 0; i < 6; i++ {
		sessions = append(sessions, cellSession(4, fmt.Sprintf("1.0.0.%d", i+1), "198.51.100.11"))
	}
	// AS 5: too few sessions.
	sessions = append(sessions, cellSession(5, "10.9.9.9", "198.51.100.12"))

	res := AnalyzeCellular(sessions, g, NLConfig{})
	for _, asn := range []uint32{1, 3, 4} {
		if as := res.PerAS[asn]; as == nil || !as.CGN {
			t.Errorf("AS%d should be CGN-positive, got %+v", asn, as)
		}
	}
	if res.PerAS[2].CGN {
		t.Error("AS2 (public assignments) must be negative")
	}
	if res.PerAS[5].CGN {
		t.Error("AS5 (below session floor) must not be positive")
	}
	// AS1's six sessions were all translated, AS2's six none.
	if as1, as2 := res.PerAS[1], res.PerAS[2]; as1.Sessions != 6 || as1.Translated != 6 || as2.Sessions != 6 || as2.Translated != 0 {
		t.Errorf("translated sessions: AS1 %d of %d, AS2 %d of %d; want 6 of 6 and 0 of 6",
			as1.Translated, as1.Sessions, as2.Translated, as2.Sessions)
	}
	// Table 4 column 2 categories.
	if res.DevCategories[netaddr.CatPrivate] != 7 { // 6 from AS1 + 1 from AS5
		t.Errorf("private IPdev count = %d", res.DevCategories[netaddr.CatPrivate])
	}
	if res.DevCategories[netaddr.CatUnrouted] != 6 {
		t.Errorf("unrouted IPdev count = %d", res.DevCategories[netaddr.CatUnrouted])
	}
	if res.DevCategories[netaddr.CatRoutedMismatch] != 6 {
		t.Errorf("mismatch IPdev count = %d", res.DevCategories[netaddr.CatRoutedMismatch])
	}
	covered := res.CoveredASes()
	if len(covered) != 4 {
		t.Errorf("covered = %v", covered)
	}
}

func nonCellSession(asn uint32, dev, cpe, pub string) netalyzr.Session {
	s := netalyzr.Session{ASN: asn, IPdev: addr(dev), IPpub: addr(pub)}
	if cpe != "" {
		s.HasCPE = true
		s.IPcpe = addr(cpe)
	}
	return s
}

func TestNonCellularDetection(t *testing.T) {
	g := newGlobal()
	var sessions []netalyzr.Session

	// Fill the common-CPE-block table: many sessions with 192.168.0/24
	// and 192.168.1/24 device addresses.
	for i := 0; i < 30; i++ {
		pub := fmt.Sprintf("203.0.113.%d", i+1)
		sessions = append(sessions, nonCellSession(10, fmt.Sprintf("192.168.0.%d", i+2), pub, pub))
		sessions = append(sessions, nonCellSession(10, fmt.Sprintf("192.168.1.%d", i+2), pub, pub))
	}

	// AS 20: true CGN — IPcpe in diverse 100.64/10 /24s.
	for i := 0; i < 12; i++ {
		sessions = append(sessions, nonCellSession(20,
			"192.168.0.7",
			fmt.Sprintf("100.64.%d.9", i),
			fmt.Sprintf("198.51.100.%d", 50+i)))
	}

	// AS 30: stacked home NATs — IPcpe inside the common blocks.
	for i := 0; i < 12; i++ {
		sessions = append(sessions, nonCellSession(30,
			"192.168.1.7",
			fmt.Sprintf("192.168.0.%d", i+100),
			fmt.Sprintf("198.51.100.%d", 80+i)))
	}

	// AS 40: one internal pool /24 reused (low diversity): e.g. a single
	// building NAT, below the 0.4N diversity bar.
	for i := 0; i < 12; i++ {
		sessions = append(sessions, nonCellSession(40,
			"192.168.0.8",
			fmt.Sprintf("10.77.1.%d", i+2),
			fmt.Sprintf("198.51.100.%d", 100+i)))
	}

	res := AnalyzeNonCellular(sessions, g, NLConfig{})

	if as := res.PerAS[20]; as == nil || !as.CGN {
		t.Fatalf("AS20 = %+v, want CGN-positive", as)
	}
	if as := res.PerAS[20]; as.Candidates != 12 || as.CPEBlocks != 12 {
		t.Errorf("AS20 funnel = %d candidates, %d blocks", as.Candidates, as.CPEBlocks)
	}
	if res.PerAS[30].CGN {
		t.Error("AS30 (stacked home NATs) must be negative")
	}
	if res.PerAS[30].Candidates != 0 {
		t.Errorf("AS30 candidates = %d, want 0 (filtered by top blocks)", res.PerAS[30].Candidates)
	}
	if res.FilteredByBlock != 12 {
		t.Errorf("FilteredByBlock = %d, want 12", res.FilteredByBlock)
	}
	if res.PerAS[40].CGN {
		t.Error("AS40 (low diversity) must be negative")
	}
	if res.PerAS[10].CGN {
		t.Error("AS10 (no translation) must be negative")
	}

	// IPcpe categories: AS10's 60 sessions are routed matches.
	if res.CPECategories[netaddr.CatRoutedMatch] != 60 {
		t.Errorf("routed match IPcpe = %d", res.CPECategories[netaddr.CatRoutedMatch])
	}
}

func TestCoverageTable(t *testing.T) {
	db := asdb.NewDB()
	add := func(asn uint32, kind asdb.Kind, region asdb.RIR, pbl int) {
		db.Add(&asdb.AS{ASN: asn, Kind: kind, Region: region, PBLEndUserAddrs: pbl, APNICSamples: pbl})
	}
	add(1, asdb.Eyeball, asdb.RIPE, 4096)
	add(2, asdb.Eyeball, asdb.APNIC, 4096)
	add(3, asdb.Eyeball, asdb.ARIN, 0) // not eyeball-listed
	add(4, asdb.Cellular, asdb.APNIC, 4096)
	add(5, asdb.Transit, asdb.RIPE, 0)

	bt := NewMethodView("BitTorrent", []uint32{1, 2, 3}, []uint32{1})
	nl := NewMethodView("Netalyzr non-cellular", []uint32{2}, []uint32{2})
	union := Union("BitTorrent ∪ Netalyzr", bt, nl)

	routed := db.RoutedPopulation()
	mc := union.Against(routed)
	if mc.Covered != 3 || mc.Positive != 2 {
		t.Errorf("union against routed = %+v", mc)
	}
	pbl := db.PBLPopulation()
	mc = union.Against(pbl)
	if mc.PopSize != 3 || mc.Covered != 2 || mc.Positive != 2 {
		t.Errorf("union against PBL = %+v", mc)
	}
	if mc.PositiveFrac() != 1.0 {
		t.Errorf("PositiveFrac = %v", mc.PositiveFrac())
	}
}

func TestByRegion(t *testing.T) {
	db := asdb.NewDB()
	db.Add(&asdb.AS{ASN: 1, Kind: asdb.Eyeball, Region: asdb.RIPE, PBLEndUserAddrs: 4096})
	db.Add(&asdb.AS{ASN: 2, Kind: asdb.Eyeball, Region: asdb.RIPE, PBLEndUserAddrs: 4096})
	db.Add(&asdb.AS{ASN: 3, Kind: asdb.Cellular, Region: asdb.APNIC})

	eyeball := NewMethodView("x", []uint32{1, 2}, []uint32{1})
	cell := NewMethodView("y", []uint32{3}, []uint32{3})
	stats := ByRegion(db, eyeball, cell)

	ripe := stats[int(asdb.RIPE)]
	if ripe.EyeballTotal != 2 || ripe.EyeballCovered != 2 || ripe.EyeballPositive != 1 {
		t.Errorf("RIPE = %+v", ripe)
	}
	apnic := stats[int(asdb.APNIC)]
	if apnic.CellularCovered != 1 || apnic.CellularPositive != 1 {
		t.Errorf("APNIC = %+v", apnic)
	}
}

func TestScoreAgainstTruth(t *testing.T) {
	v := NewMethodView("m", []uint32{1, 2, 3, 4}, []uint32{1, 2})
	truth := map[uint32]bool{1: true, 3: true}
	s := v.ScoreAgainstTruth(truth)
	if s.TruePositive != 1 || s.FalsePositive != 1 || s.FalseNegative != 1 {
		t.Errorf("score = %+v", s)
	}
	if s.Precision() != 0.5 || s.Recall() != 0.5 {
		t.Errorf("precision=%v recall=%v", s.Precision(), s.Recall())
	}
	empty := NewMethodView("e", nil, nil).ScoreAgainstTruth(nil)
	if empty.Precision() != 1 || empty.Recall() != 1 {
		t.Error("empty score should be perfect")
	}
}
