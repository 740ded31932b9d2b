package metrics

import (
	"math"
	"strings"
	"testing"
)

func render(fn func(w *Writer)) string {
	var b strings.Builder
	fn(NewWriter(&b))
	return b.String()
}

// TestWriterFormat pins the exposition layout: the HELP/TYPE preamble,
// unlabelled and labelled samples, and number formatting — integers in
// decimal at full width, floats in Go's shortest %g form.
func TestWriterFormat(t *testing.T) {
	got := render(func(w *Writer) {
		w.Family(Family{Name: "x_total", Type: TypeCounter, Help: "Things counted."})
		w.Sample("", Uint(math.MaxUint64))
		w.Family(Family{Name: "y", Type: TypeGauge, Help: `A gauge\with "quotes"` + "\nand a newline.", Label: "kind"})
		w.Sample("a", Int(-1))
		w.Sample("b", Float(0.015462239583333334))
		w.Sample("c", Float(1e21))
		w.Sample("d", Bool(true))
		w.Sample("e", Bool(false))
	})
	want := `# HELP x_total Things counted.
# TYPE x_total counter
x_total 18446744073709551615
# HELP y A gauge\\with "quotes"\nand a newline.
# TYPE y gauge
y{kind="a"} -1
y{kind="b"} 0.015462239583333334
y{kind="c"} 1e+21
y{kind="d"} 1
y{kind="e"} 0
`
	if got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelValueEscaping pins label values to the text format's three
// escapes — backslash, double quote and newline — and nothing else: a
// tab or a non-ASCII rune passes through raw, since a parser rejects
// any other backslash sequence and with it the whole scrape. Plain IDs
// render unchanged.
func TestLabelValueEscaping(t *testing.T) {
	for _, tc := range []struct{ id, want string }{
		{"carrier07", `m{realm="carrier07"} 1`},
		{"tab\there", "m{realm=\"tab\there\"} 1"},
		{"nbsp\u00a0id", "m{realm=\"nbsp\u00a0id\"} 1"},
		{"new\nline", `m{realm="new\nline"} 1`},
		{`quo"te\back`, `m{realm="quo\"te\\back"} 1`},
	} {
		got := render(func(w *Writer) {
			w.Family(Family{Name: "m", Type: TypeGauge, Help: "h", Label: "realm"})
			w.Sample(tc.id, Int(1))
		})
		if want := "# HELP m h\n# TYPE m gauge\n" + tc.want + "\n"; got != want {
			t.Errorf("realm %q:\n got %q\nwant %q", tc.id, got, want)
		}
	}
}
