package traffic

// Serialization accessors for state a kernel's caller keeps across
// steps. The fleet engine (internal/fleet) steps one Realm per carrier
// over months of virtual time and checkpoints mid-run: the kernel's own
// state travels as a RealmSnapshot, but the Tally histograms the fleet
// accumulates are the fleet's, so they must be serializable too.
// Everything here is a plain copy in or out; none of it is on a hot
// path.

// State returns a copy of the histogram's dense bucket counts (index =
// sample value) and its sample count, trimmed of the trailing zero
// buckets growth leaves behind.
func (h *Hist) State() ([]uint64, uint64) {
	top := len(h.counts)
	for top > 0 && h.counts[top-1] == 0 {
		top--
	}
	out := make([]uint64, top)
	copy(out, h.counts)
	return out, h.n
}

// HistFromState rebuilds a histogram from State output. It is the
// identity round-trip: quantiles, max and future merges behave exactly
// as on the original.
func HistFromState(counts []uint64, n uint64) Hist {
	h := Hist{n: n}
	if len(counts) > 0 {
		h.counts = make([]uint64, len(counts))
		copy(h.counts, counts)
	}
	return h
}
