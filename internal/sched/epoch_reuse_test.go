package sched

import (
	"fmt"
	"testing"
)

// TestEpochBankReuseRace: a worker's state — and with it the
// epoch-stamped skip set fixSpike marks infeasible delays in, the
// relaxation undo journal, the gap index, and the tracker's banks —
// is reused across every restart that worker runs,
// self-cleaning by epoch bump or truncation rather than a wholesale
// zeroing pass. A stale mark or journal entry surviving into the next
// restart would steer it to a different schedule and break the
// portfolio's deterministic reduction, so hammer portfolios that
// exercise the marking paths (spiky homogeneous and heterogeneous
// instances, with and without compaction) and require the exact
// sequential outcome from every parallel run. Under -race (the CI test
// job) this also proves no bank is shared between concurrently running
// worker states.
func TestEpochBankReuseRace(t *testing.T) {
	cases := []struct {
		name string
		seed int64
	}{
		{"layered", 11},
		{"layered", 17},
		{"hetero", 5},
	}
	iters := 3
	if testing.Short() {
		iters = 1
	}
	for _, tc := range cases {
		p := genProblem(tc.seed)
		if tc.name == "hetero" {
			p = genHeteroProblem(tc.seed)
		}
		for _, compact := range []bool{false, true} {
			opts := Options{Seed: tc.seed, Restarts: 24, Workers: 1, Compact: compact}
			want, err := MinPower(p, opts)
			if err != nil {
				t.Fatalf("%s/seed=%d: sequential portfolio failed: %v", tc.name, tc.seed, err)
			}
			for i := 0; i < iters; i++ {
				opts.Workers = 6
				got, err := MinPower(p, opts)
				if err != nil {
					t.Fatalf("%s/seed=%d iter %d: parallel portfolio failed: %v", tc.name, tc.seed, i, err)
				}
				label := fmt.Sprintf("%s/seed=%d/compact=%v/iter=%d", tc.name, tc.seed, compact, i)
				equalResults(t, label, got, want)
			}
		}
	}
}
