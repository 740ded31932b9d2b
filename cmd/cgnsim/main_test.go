package main

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"cgn/internal/internet"
	"cgn/internal/nat"
)

// TestWriteTruthSortedAndStable: ground truth prints in ascending ASN
// order, skips non-CGN ASes, and renders the same map to the same bytes
// every time, whatever Go's map iteration order.
func TestWriteTruthSortedAndStable(t *testing.T) {
	truth := map[uint32]*internet.Truth{}
	for _, asn := range []uint32{907, 12, 4400, 65, 3001, 8} {
		truth[asn] = &internet.Truth{
			ASN:          asn,
			CGN:          asn != 65,
			Cellular:     asn%2 == 0,
			Realms:       1,
			Ranges:       []string{"100.64.0.0/10"},
			PortAllocs:   []nat.PortAlloc{nat.Random},
			MappingTypes: []nat.MappingType{nat.FullCone},
			Timeouts:     []time.Duration{time.Minute},
		}
	}
	var first bytes.Buffer
	writeTruth(&first, truth)
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		writeTruth(&again, truth)
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, again.Bytes(), first.Bytes())
		}
	}
	var asns []uint64
	for _, m := range regexp.MustCompile(`(?m)^  AS(\d+) `).FindAllSubmatch(first.Bytes(), -1) {
		asn, err := strconv.ParseUint(string(m[1]), 10, 32)
		if err != nil {
			t.Fatal(err)
		}
		asns = append(asns, asn)
	}
	if want := []uint64{8, 12, 907, 3001, 4400}; !slices.Equal(asns, want) {
		t.Fatalf("printed ASNs %v, want %v:\n%s", asns, want, first.Bytes())
	}
}
