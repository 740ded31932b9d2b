package asdb

import (
	"testing"

	"cgn/internal/netaddr"
)

func newAS(asn uint32, kind Kind, region RIR, pbl, apnic int) *AS {
	return &AS{
		ASN: asn, Name: "test", Region: region, Kind: kind,
		Allocations:     []netaddr.Prefix{netaddr.MustParsePrefix("203.0.0.0/16")},
		PBLEndUserAddrs: pbl, APNICSamples: apnic,
	}
}

func TestAddGet(t *testing.T) {
	db := NewDB()
	db.Add(newAS(65001, Eyeball, RIPE, 4096, 2000))
	if all := db.All(); len(all) != 1 || all[0].ASN != 65001 {
		t.Fatalf("All = %+v", all)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	db := NewDB()
	db.Add(newAS(1, Eyeball, RIPE, 0, 0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add should panic")
		}
	}()
	db.Add(newAS(1, Eyeball, RIPE, 0, 0))
}

func TestAllInsertionOrder(t *testing.T) {
	db := NewDB()
	for _, asn := range []uint32{30, 10, 20} {
		db.Add(newAS(asn, Eyeball, ARIN, 0, 0))
	}
	all := db.All()
	if all[0].ASN != 30 || all[1].ASN != 10 || all[2].ASN != 20 {
		t.Errorf("All order = %v,%v,%v", all[0].ASN, all[1].ASN, all[2].ASN)
	}
}

func TestEyeballThresholds(t *testing.T) {
	cases := []struct {
		pbl, apnic   int
		inPBL, inAPN bool
	}{
		{2048, 1000, true, true},
		{2047, 999, false, false},
		{0, 5000, false, true},
		{99999, 0, true, false},
	}
	for _, c := range cases {
		as := newAS(1, Eyeball, RIPE, c.pbl, c.apnic)
		if as.InPBLEyeballList() != c.inPBL {
			t.Errorf("pbl=%d: InPBLEyeballList = %v", c.pbl, as.InPBLEyeballList())
		}
		if as.InAPNICEyeballList() != c.inAPN {
			t.Errorf("apnic=%d: InAPNICEyeballList = %v", c.apnic, as.InAPNICEyeballList())
		}
	}
}

func TestPopulations(t *testing.T) {
	db := NewDB()
	db.Add(newAS(1, Eyeball, RIPE, 4096, 0))      // PBL only
	db.Add(newAS(2, Eyeball, APNIC, 0, 1500))     // APNIC only
	db.Add(newAS(3, Cellular, APNIC, 4096, 1500)) // both + cellular
	db.Add(newAS(4, Transit, ARIN, 0, 0))         // neither

	if p := db.RoutedPopulation(); p.Size() != 4 || !p.Contains(4) {
		t.Errorf("routed population = %v", p.ASNs)
	}
	if p := db.PBLPopulation(); p.Size() != 2 || !p.Contains(1) || !p.Contains(3) {
		t.Errorf("PBL population = %v", p.ASNs)
	}
	if p := db.APNICPopulation(); p.Size() != 2 || !p.Contains(2) || !p.Contains(3) {
		t.Errorf("APNIC population = %v", p.ASNs)
	}
	if p := db.CellularPopulation(); p.Size() != 1 || !p.Contains(3) {
		t.Errorf("cellular population = %v", p.ASNs)
	}
}

func TestStringers(t *testing.T) {
	if AFRINIC.String() != "AFRINIC" || RIPE.String() != "RIPE" {
		t.Error("RIR names")
	}
	if len(RIRs) != 5 {
		t.Error("five RIRs expected")
	}
	if Eyeball.String() != "eyeball" || Cellular.String() != "cellular" ||
		Transit.String() != "transit" || Content.String() != "content" {
		t.Error("Kind names")
	}
	if RIR(99).String() == "" || Kind(99).String() == "" {
		t.Error("unknown values should still render")
	}
}
