package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }

func collect(ps []passRec, f func(passRec) float64) []float64 {
	out := make([]float64, 0, len(ps))
	for _, p := range ps {
		if p.err == nil {
			out = append(out, f(p))
		}
	}
	return out
}

func wallSeconds(p passRec) float64 { return p.wall.Seconds() }

// keys lists the map keys the passes report, sorted.
func keys(ps []passRec, m func(passRec) map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range ps {
		for k := range m(p) {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// millis converts span durations to milliseconds.
func millis(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(time.Millisecond)
	}
	return out
}
