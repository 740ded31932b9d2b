package nat

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"cgn/internal/netaddr"
)

// StateDigest returns a deterministic SHA-256 over the NAT's complete
// translation state: every live mapping (internal and external endpoint,
// creation and last-activity times, the destination set the filtering
// policies consult) plus the per-subscriber session counts and the
// port-space occupancy. Two NATs that translated the same packet
// sequence digest identically; the forwarding goldens in simnet and
// internet rely on exactly that to pin NAT state across engine changes.
func (n *NAT) StateDigest() string {
	lines := n.appendDigestLines(make([]string, 0, n.byInt.n+n.subs.live))
	return digestOf(lines, n.ports.inUse, n.ports.peak, n.subs.seen)
}

// appendDigestLines appends one line per live mapping and one per
// subscriber with live sessions, unsorted. The sharded façade collects
// lines across every lane before sorting, which is why the digest body
// is line-oriented: lane states are disjoint (each lane owns its
// external IPs and its subscribers), so the union of lane lines is
// exactly the line set an equivalent single table would emit.
func (n *NAT) appendDigestLines(lines []string) []string {
	n.byInt.forEach(func(m *Mapping) {
		dsts := make([]string, 0, 1+len(m.extraDsts))
		dsts = append(dsts, m.dst0.String())
		for d := range m.extraDsts {
			dsts = append(dsts, d.String())
		}
		sort.Strings(dsts)
		lines = append(lines, fmt.Sprintf("map %v %v->%v created=%d active=%d dsts=%s",
			m.Proto, m.Int, m.Ext, m.created, m.lastActive,
			strings.Join(dsts, ",")))
	})
	n.forEachSession(func(a netaddr.Addr, c int) {
		lines = append(lines, fmt.Sprintf("sessions %v=%d", a, c))
	})
	return lines
}

// digestOf sorts the state lines and hashes them with the port-space
// footer.
func digestOf(lines []string, inUse, peak, subscribers int) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "ports inuse=%d peak=%d subscribers=%d\n", inUse, peak, subscribers)
	return hex.EncodeToString(h.Sum(nil))
}
