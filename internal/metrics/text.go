package metrics

import (
	"io"
	"math"
	"strconv"
)

// Type is a metric family's Prometheus type.
type Type string

// The family types the repository exports.
const (
	TypeCounter Type = "counter"
	TypeGauge   Type = "gauge"
)

// Family is one metric family: the name every sample carries, its type
// and help text, and the name of the one label its samples carry ("" for
// an unlabelled family).
type Family struct {
	Name  string
	Type  Type
	Help  string
	Label string
}

// Value is one sample's value. Integers render in decimal and floats in
// Go's shortest 'g' form (what %g prints), so a counter never rounds
// through float64.
type Value struct {
	kind uint8
	bits uint64
}

const (
	valInt uint8 = iota
	valUint
	valFloat
)

// Int is an integer sample value.
func Int(v int) Value { return Value{valInt, uint64(v)} }

// Uint is an unsigned integer sample value, the width of a Counter.
func Uint(v uint64) Value { return Value{valUint, v} }

// Float is a floating-point sample value.
func Float(v float64) Value { return Value{valFloat, math.Float64bits(v)} }

// Bool is 1 for true and 0 for false.
func Bool(v bool) Value {
	if v {
		return Int(1)
	}
	return Int(0)
}

func (v Value) append(b []byte) []byte {
	switch v.kind {
	case valUint:
		return strconv.AppendUint(b, v.bits, 10)
	case valFloat:
		return strconv.AppendFloat(b, math.Float64frombits(v.bits), 'g', -1, 64)
	}
	return strconv.AppendInt(b, int64(v.bits), 10)
}

// Writer renders metric families in the Prometheus text exposition
// format, version 0.0.4. It owns every format detail — the HELP/TYPE
// preamble, escaping and number formatting — so callers supply only
// names, help texts, label names and values. Each line goes to the
// underlying writer as it completes. Write errors are not reported: an
// exposition that breaks off fails the scrape, which the scraper
// retries, and the writer has nothing to undo.
type Writer struct {
	w    io.Writer
	fam  Family
	line []byte
}

// NewWriter returns a Writer rendering to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Family writes f's HELP and TYPE lines; the samples written next
// belong to f.
func (w *Writer) Family(f Family) {
	w.fam = f
	b := append(w.line[:0], "# HELP "...)
	b = append(b, f.Name...)
	b = append(b, ' ')
	b = appendEscaped(b, f.Help, false)
	b = append(b, "\n# TYPE "...)
	b = append(b, f.Name...)
	b = append(b, ' ')
	b = append(b, f.Type...)
	w.emit(b)
}

// Sample writes one sample of the current family. labelValue is the
// value of the family's label; it is ignored when the family has none.
func (w *Writer) Sample(labelValue string, v Value) {
	b := append(w.line[:0], w.fam.Name...)
	if w.fam.Label != "" {
		b = append(b, '{')
		b = append(b, w.fam.Label...)
		b = append(b, `="`...)
		b = appendEscaped(b, labelValue, true)
		b = append(b, `"}`...)
	}
	b = append(b, ' ')
	b = v.append(b)
	w.emit(b)
}

func (w *Writer) emit(b []byte) {
	w.line = append(b, '\n')
	_, _ = w.w.Write(w.line)
}

// appendEscaped appends s escaped as the text format requires: a
// backslash and a newline in HELP text, and also a double quote in a
// label value (quoted set). The format allows no other escape — a
// parser rejects any other backslash sequence, and the whole scrape with
// it — so every other byte passes through as is.
func appendEscaped(b []byte, s string, quoted bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quoted:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}
