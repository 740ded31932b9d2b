// Package asdb models the AS-level metadata the paper's evaluation slices
// by: the Regional Internet Registry (RIR) an AS belongs to, whether it is
// an "eyeball" AS per the Spamhaus PBL and APNIC population heuristics, and
// whether it is a cellular network. The simulated world generator populates
// a DB; the detection pipelines read it to compute Table 5 and Figure 6.
package asdb

import (
	"fmt"

	"cgn/internal/netaddr"
)

// RIR identifies one of the five Regional Internet Registries.
type RIR uint8

// The five RIRs, ordered as the paper's Figure 6 x-axis.
const (
	AFRINIC RIR = iota
	APNIC
	ARIN
	LACNIC
	RIPE
)

// RIRs lists all regions in Figure 6 order.
var RIRs = []RIR{AFRINIC, APNIC, ARIN, LACNIC, RIPE}

// String returns the registry name.
func (r RIR) String() string {
	switch r {
	case AFRINIC:
		return "AFRINIC"
	case APNIC:
		return "APNIC"
	case ARIN:
		return "ARIN"
	case LACNIC:
		return "LACNIC"
	case RIPE:
		return "RIPE"
	default:
		return fmt.Sprintf("RIR(%d)", r)
	}
}

// Kind is the coarse business type of an AS.
type Kind uint8

// AS kinds. Only Eyeball and Cellular ASes host the vantage points the
// paper's methods observe; Transit and Content ASes pad the "all routed
// ASes" population of Table 5.
const (
	Eyeball Kind = iota
	Cellular
	Transit
	Content
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Eyeball:
		return "eyeball"
	case Cellular:
		return "cellular"
	case Transit:
		return "transit"
	case Content:
		return "content"
	default:
		return fmt.Sprintf("Kind(%d)", k)
	}
}

// AS describes one autonomous system.
type AS struct {
	ASN    uint32
	Name   string
	Region RIR
	Kind   Kind

	// Allocations are the public prefixes allocated to (and announced by)
	// this AS.
	Allocations []netaddr.Prefix

	// PBLEndUserAddrs is the number of addresses the (simulated) Spamhaus
	// Policy Block List marks as "end user" space in this AS. The paper
	// counts an AS as an eyeball AS if this is >= 2048.
	PBLEndUserAddrs int

	// APNICSamples is the (simulated) APNIC Labs ad-based population sample
	// count. The paper counts an AS as an eyeball AS if this is >= 1000.
	APNICSamples int
}

// Thresholds for eyeball AS population membership, per §5 of the paper.
const (
	PBLEyeballMinAddrs     = 2048
	APNICEyeballMinSamples = 1000
)

// InPBLEyeballList reports membership in the PBL-derived eyeball population.
func (a *AS) InPBLEyeballList() bool { return a.PBLEndUserAddrs >= PBLEyeballMinAddrs }

// InAPNICEyeballList reports membership in the APNIC-derived population.
func (a *AS) InAPNICEyeballList() bool { return a.APNICSamples >= APNICEyeballMinSamples }

// DB is a registry of ASes indexed by ASN.
type DB struct {
	byASN map[uint32]*AS
	order []uint32 // insertion order for deterministic iteration
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{byASN: make(map[uint32]*AS)}
}

// Add registers an AS. It panics on duplicate ASNs: the world generator
// owns ASN assignment and a duplicate is a bug, not an input error.
func (db *DB) Add(as *AS) {
	if _, dup := db.byASN[as.ASN]; dup {
		panic(fmt.Sprintf("asdb: duplicate ASN %d", as.ASN))
	}
	db.byASN[as.ASN] = as
	db.order = append(db.order, as.ASN)
}

// Len returns the number of registered ASes.
func (db *DB) Len() int { return len(db.order) }

// All returns all ASes in insertion order.
func (db *DB) All() []*AS {
	out := make([]*AS, len(db.order))
	for i, asn := range db.order {
		out[i] = db.byASN[asn]
	}
	return out
}

// Population is a named set of ASNs against which coverage and detection
// rates are computed (the three big columns of Table 5).
type Population struct {
	Name string
	ASNs map[uint32]bool
}

// Contains reports membership.
func (p Population) Contains(asn uint32) bool { return p.ASNs[asn] }

// Size returns the population size.
func (p Population) Size() int { return len(p.ASNs) }

// RoutedPopulation returns all ASes (the "routed ASes" column of Table 5).
func (db *DB) RoutedPopulation() Population {
	p := Population{Name: "routed ASes", ASNs: make(map[uint32]bool, db.Len())}
	for _, asn := range db.order {
		p.ASNs[asn] = true
	}
	return p
}

// PBLPopulation returns the PBL-derived eyeball AS population.
func (db *DB) PBLPopulation() Population {
	p := Population{Name: "eyeball ASes, PBL", ASNs: make(map[uint32]bool)}
	for _, asn := range db.order {
		if db.byASN[asn].InPBLEyeballList() {
			p.ASNs[asn] = true
		}
	}
	return p
}

// APNICPopulation returns the APNIC-derived eyeball AS population.
func (db *DB) APNICPopulation() Population {
	p := Population{Name: "eyeball ASes, APNIC", ASNs: make(map[uint32]bool)}
	for _, asn := range db.order {
		if db.byASN[asn].InAPNICEyeballList() {
			p.ASNs[asn] = true
		}
	}
	return p
}

// CellularPopulation returns all cellular ASes.
func (db *DB) CellularPopulation() Population {
	p := Population{Name: "cellular ASes", ASNs: make(map[uint32]bool)}
	for _, asn := range db.order {
		if db.byASN[asn].Kind == Cellular {
			p.ASNs[asn] = true
		}
	}
	return p
}
