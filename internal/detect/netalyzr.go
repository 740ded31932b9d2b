package detect

import (
	"sort"

	"cgn/internal/netaddr"
	"cgn/internal/netalyzr"
	"cgn/internal/routing"
	"cgn/internal/stats"
)

// Detection thresholds from §4.2.
const (
	// MinCellularSessions is the per-AS observation floor for the
	// (straightforward) cellular classification.
	MinCellularSessions = 5
	// MinNonCellularSessions is the per-AS floor for the NAT444
	// heuristic, higher because in-path home equipment widens the
	// behavior space.
	MinNonCellularSessions = 10
	// CPEBlockTopN: IPcpe addresses falling in the top-N /24 blocks of
	// observed IPdev assignments are attributed to stacked home NATs,
	// not CGNs.
	CPEBlockTopN = 10
	// DiversityFactor: an AS with N candidate sessions must show at
	// least DiversityFactor*N distinct /24 blocks of IPcpe to be called
	// a CGN.
	DiversityFactor = 0.4
)

// NLConfig parameterizes the Netalyzr pipelines; zero values take the
// paper's defaults.
type NLConfig struct {
	MinCellularSessions    int
	MinNonCellularSessions int
	CPEBlockTopN           int
	DiversityFactor        float64
}

func (c NLConfig) withDefaults() NLConfig {
	if c.MinCellularSessions == 0 {
		c.MinCellularSessions = MinCellularSessions
	}
	if c.MinNonCellularSessions == 0 {
		c.MinNonCellularSessions = MinNonCellularSessions
	}
	if c.CPEBlockTopN == 0 {
		c.CPEBlockTopN = CPEBlockTopN
	}
	if c.DiversityFactor == 0 {
		c.DiversityFactor = DiversityFactor
	}
	return c
}

// CellularAS is the per-AS cellular verdict.
type CellularAS struct {
	ASN      uint32
	Sessions int
	// Translated counts sessions whose IPdev is not a routed match —
	// direct evidence of carrier-side translation.
	Translated int
	// DevCategories tallies IPdev categories (Table 4, column 2).
	DevCategories stats.Freq[netaddr.Category]
	// CGN is the verdict.
	CGN bool
}

// CellularResult is the cellular pipeline outcome.
type CellularResult struct {
	Cfg   NLConfig
	PerAS map[uint32]*CellularAS
	// DevCategories tallies IPdev categories over all sessions.
	DevCategories stats.Freq[netaddr.Category]
}

// AnalyzeCellular classifies cellular sessions: with no home equipment in
// front of the device, a translated IPdev directly indicates a CGN.
func AnalyzeCellular(sessions []netalyzr.Session, global *routing.Global, cfg NLConfig) *CellularResult {
	cfg = cfg.withDefaults()
	res := &CellularResult{
		Cfg:           cfg,
		PerAS:         make(map[uint32]*CellularAS),
		DevCategories: stats.Freq[netaddr.Category]{},
	}
	for _, s := range sessions {
		if !s.Cellular {
			continue
		}
		as := res.PerAS[s.ASN]
		if as == nil {
			as = &CellularAS{ASN: s.ASN, DevCategories: stats.Freq[netaddr.Category]{}}
			res.PerAS[s.ASN] = as
		}
		cat := netaddr.Categorize(s.IPdev, global.Routed(s.IPdev), s.IPpub)
		as.Sessions++
		as.DevCategories.Add(cat)
		res.DevCategories.Add(cat)
		if cat != netaddr.CatRoutedMatch {
			as.Translated++
		}
	}
	for _, as := range res.PerAS {
		if as.Sessions >= cfg.MinCellularSessions && as.Translated > 0 {
			as.CGN = true
		}
	}
	return res
}

// CoveredASes returns cellular ASes with enough sessions, sorted.
func (r *CellularResult) CoveredASes() []uint32 {
	var out []uint32
	for asn, as := range r.PerAS {
		if as.Sessions >= r.Cfg.MinCellularSessions {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PositiveASes returns covered CGN-positive cellular ASes, sorted.
func (r *CellularResult) PositiveASes() []uint32 {
	var out []uint32
	for asn, as := range r.PerAS {
		if as.Sessions >= r.Cfg.MinCellularSessions && as.CGN {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NonCellularAS is the per-AS NAT444 verdict.
type NonCellularAS struct {
	ASN      uint32
	Sessions int
	// Candidates counts sessions surviving the funnel: IPcpe known,
	// IPcpe != IPpub, and IPcpe outside the common CPE assignment
	// blocks. These are the x-axis of Figure 5.
	Candidates int
	// CPEBlocks counts distinct /24s of candidate IPcpe addresses — the
	// y-axis of Figure 5.
	CPEBlocks int
	// CGN is the verdict.
	CGN bool
}

// NonCellularResult is the NAT444 pipeline outcome.
type NonCellularResult struct {
	Cfg   NLConfig
	PerAS map[uint32]*NonCellularAS
	// TopCPEBlocks are the filtered common CPE assignment /24s.
	TopCPEBlocks []netaddr.Prefix
	// CPECategories tallies IPcpe categories where UPnP answered
	// (Table 4, column 4); DevCategories tallies IPdev (column 3).
	CPECategories stats.Freq[netaddr.Category]
	DevCategories stats.Freq[netaddr.Category]
	// FilteredByBlock counts candidate sessions attributed to stacked
	// home NATs by the top-block filter.
	FilteredByBlock int
}

// AnalyzeNonCellular runs the §4.2 NAT444 heuristic over non-cellular
// sessions.
func AnalyzeNonCellular(sessions []netalyzr.Session, global *routing.Global, cfg NLConfig) *NonCellularResult {
	cfg = cfg.withDefaults()
	res := &NonCellularResult{
		Cfg:           cfg,
		PerAS:         make(map[uint32]*NonCellularAS),
		CPECategories: stats.Freq[netaddr.Category]{},
		DevCategories: stats.Freq[netaddr.Category]{},
	}

	// Step 0: learn the common CPE assignment blocks from IPdev.
	devBlocks := stats.Freq[netaddr.Prefix]{}
	for _, s := range sessions {
		if s.Cellular {
			continue
		}
		if netaddr.IsReserved(s.IPdev) {
			devBlocks.Add(s.IPdev.Block24())
		}
	}
	res.TopCPEBlocks = devBlocks.TopN(cfg.CPEBlockTopN)
	inTopBlocks := func(a netaddr.Addr) bool {
		blk := a.Block24()
		for _, p := range res.TopCPEBlocks {
			if p == blk {
				return true
			}
		}
		return false
	}

	// Step 1: per-session funnel.
	cpeBlocks := make(map[uint32]map[netaddr.Prefix]bool)
	for _, s := range sessions {
		if s.Cellular {
			continue
		}
		as := res.PerAS[s.ASN]
		if as == nil {
			as = &NonCellularAS{ASN: s.ASN}
			res.PerAS[s.ASN] = as
		}
		as.Sessions++
		res.DevCategories.Add(netaddr.Categorize(s.IPdev, global.Routed(s.IPdev), s.IPpub))
		if !s.HasCPE {
			continue
		}
		cat := netaddr.Categorize(s.IPcpe, global.Routed(s.IPcpe), s.IPpub)
		res.CPECategories.Add(cat)
		if cat == netaddr.CatRoutedMatch {
			continue // CPE holds the public address: no CGN on path
		}
		if inTopBlocks(s.IPcpe) {
			res.FilteredByBlock++
			continue // stacked home NAT, not a carrier NAT
		}
		as.Candidates++
		if cpeBlocks[s.ASN] == nil {
			cpeBlocks[s.ASN] = make(map[netaddr.Prefix]bool)
		}
		cpeBlocks[s.ASN][s.IPcpe.Block24()] = true
	}

	// Step 2: per-AS diversity verdict.
	for asn, as := range res.PerAS {
		as.CPEBlocks = len(cpeBlocks[asn])
		if as.Candidates >= cfg.MinNonCellularSessions &&
			float64(as.CPEBlocks) >= cfg.DiversityFactor*float64(as.Candidates) {
			as.CGN = true
		}
	}
	return res
}

// CoveredASes returns non-cellular ASes with enough sessions, sorted.
func (r *NonCellularResult) CoveredASes() []uint32 {
	var out []uint32
	for asn, as := range r.PerAS {
		if as.Sessions >= r.Cfg.MinNonCellularSessions {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PositiveASes returns CGN-positive non-cellular ASes, sorted.
func (r *NonCellularResult) PositiveASes() []uint32 {
	var out []uint32
	for asn, as := range r.PerAS {
		if as.CGN {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
