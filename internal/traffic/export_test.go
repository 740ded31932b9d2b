package traffic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"

	"cgn/internal/netaddr"
)

// ForEachArrival exposes the skip-sampling decoder to the external
// differential test in sharded_diff_test.go.
var ForEachArrival = forEachArrival

// BaselineSHA is the SHA-256 a golden constant pins for one run: %+v of
// the Result, then the final-tick state digests sorted, one a line.
func BaselineSHA(res *Result, digests []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", *res)
	for _, d := range slices.Sorted(slices.Values(digests)) {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RunAudited is Run with every realm's kernel audited after every tick
// (auditLanes). It returns the first violation seen.
func RunAudited(cfg Config) (*Result, error) {
	var mu sync.Mutex
	var first error
	res := run(cfg, func(r *Realm) {
		if err := r.auditLanes(); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
		}
	})
	return res, first
}

// auditLanes checks the invariants the refresh walk, the merge,
// Snapshot and the sampling fold rest on: each lane's flows are
// subscriber ascending, every flow's member has that lane as its active
// lane, and each shard's live-count buckets hold, row by row, exactly
// the recount of its members' session counts on their lanes — which
// are their whole counts: no member holds a mapping off its lane.
func (r *Realm) auditLanes() error {
	for l, live := range r.flows {
		for i := range live {
			j := live[i].member()
			if i > 0 && j < live[i-1].member() {
				return fmt.Errorf("lane %d: flow %d (member %d) follows member %d's", l, i, j, live[i-1].member())
			}
			if r.laneOf[j] != int32(l) {
				return fmt.Errorf("lane %d: flow %d belongs to member %d, whose active lane is %d", l, i, j, r.laneOf[j])
			}
		}
	}
	for s, st := range r.st {
		var want [numRows][]uint64
		for _, l := range st.lanes {
			ln := r.sn.Lane(l)
			for row, list := range r.laneSubs[l] {
				for _, j := range list {
					a := subscriberBase + netaddr.Addr(j)
					v := ln.Sessions(a)
					if all := r.sn.Sessions(a); all != v {
						return fmt.Errorf("lane %d: member %d holds %d of its %d mappings", l, j, v, all)
					}
					for v >= len(want[row]) {
						want[row] = append(want[row], 0)
					}
					want[row][v]++
				}
			}
		}
		for row := range want {
			got := st.lc.cnt[row]
			for len(got) > 0 && got[len(got)-1] == 0 {
				got = got[:len(got)-1]
			}
			if !slices.Equal(got, want[row]) {
				return fmt.Errorf("shard %d row %d: live-count buckets %v, recount %v", s, row, got, want[row])
			}
		}
	}
	return nil
}
