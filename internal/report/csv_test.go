package report

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return rows
}

func TestWriteCSVs(t *testing.T) {
	b := bundle(t)
	dir := t.TempDir()
	paths, err := b.WriteCSVs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 15 {
		t.Errorf("wrote %d files, want 15", len(paths))
	}

	// Every file parses as CSV with a header and at least one data row.
	for _, p := range paths {
		rows := readCSV(t, p)
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", filepath.Base(p), len(rows))
		}
	}

	// Spot-check semantic integrity of a few series.
	survey := readCSV(t, filepath.Join(dir, "e01_survey.csv"))
	cgnTotal := 0
	for _, r := range survey[1:] {
		if r[0] == "cgn" {
			n, _ := strconv.Atoi(r[2])
			cgnTotal += n
		}
	}
	if cgnTotal != 75 {
		t.Errorf("survey CGN answers sum to %d, want 75", cgnTotal)
	}

	hist := readCSV(t, filepath.Join(dir, "e11a_port_hist.csv"))
	if len(hist) != 65 { // header + 64 bins
		t.Errorf("port histogram rows = %d, want 65", len(hist))
	}
	preserved := 0
	for _, r := range hist[1:] {
		n, _ := strconv.Atoi(r[1])
		preserved += n
	}
	if preserved != b.Ports.HistPreserved.Total-b.Ports.HistPreserved.Under-b.Ports.HistPreserved.Over {
		t.Errorf("histogram CSV loses samples: %d", preserved)
	}

	quad := readCSV(t, filepath.Join(dir, "e13_quadrants.csv"))
	total := 0
	for _, r := range quad[1:] {
		n, _ := strconv.Atoi(r[2])
		total += n
	}
	if total != b.TTLQuad.Total() {
		t.Errorf("quadrant CSV total = %d, want %d", total, b.TTLQuad.Total())
	}

	// e03_ranges.csv carries E03's Table 3, row for row.
	ranges := readCSV(t, filepath.Join(dir, "e03_ranges.csv"))
	table3 := strings.Split(strings.TrimSpace(b.E03()), "\n")[2:]
	if len(ranges) != 1+len(table3) {
		t.Errorf("range rows = %d, want 1+%d", len(ranges), len(table3))
	} else {
		for i, line := range table3 {
			if got, want := ranges[1+i], strings.Fields(line); !slices.Equal(got, want) {
				t.Errorf("e03_ranges.csv row %d = %v, E03 renders %v", 1+i, got, want)
			}
		}
	}

	cov := readCSV(t, filepath.Join(dir, "e08_coverage.csv"))
	if len(cov) != 1+4*3 {
		t.Errorf("coverage rows = %d, want 13", len(cov))
	}
}

func TestWriteCSVsBadDir(t *testing.T) {
	b := bundle(t)
	if _, err := b.WriteCSVs("/proc/definitely/not/writable"); err == nil {
		t.Error("expected error for unwritable directory")
	}
}
