package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/sched"
)

// TestDifferentialBenchkit200 compares the incremental core against the
// Naive oracle on benchkit ladder instances, where the min-power stage
// probes thousands of gap fills and the tracker's certified rejection
// settles almost all of them. The small generated corpus of the
// in-package differential suite rarely reaches that regime. Every scan
// order and slot choice runs (the default heuristic combinations), and
// schedules, profiles, metrics and work counters must agree exactly.
func TestDifferentialBenchkit200(t *testing.T) {
	if testing.Short() {
		t.Skip("scale differential skipped in -short mode")
	}
	const n = 200
	for seed := int64(1); seed <= 5; seed++ {
		p := benchkit.Generate(n, seed)
		opts := benchkit.Options(n)
		opts.ScanOrders, opts.SlotChoices, opts.MaxScans = nil, nil, 0
		naiveOpts := opts
		naiveOpts.Naive = true
		inc, err := sched.MinPower(p, opts)
		if err != nil {
			t.Fatalf("seed %d: incremental: %v", seed, err)
		}
		naive, err := sched.MinPower(p, naiveOpts)
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}
		label := fmt.Sprintf("benchkit %d seed %d", n, seed)
		if !inc.Schedule.Equal(naive.Schedule) {
			t.Fatalf("%s: schedules diverge\n incremental %v\n naive       %v", label, inc.Schedule.Start, naive.Schedule.Start)
		}
		if !reflect.DeepEqual(inc.Profile.Segs, naive.Profile.Segs) {
			t.Fatalf("%s: profiles diverge", label)
		}
		if inc.EnergyCost() != naive.EnergyCost() || inc.Utilization() != naive.Utilization() {
			t.Fatalf("%s: metrics diverge: cost %v vs %v, util %v vs %v",
				label, inc.EnergyCost(), naive.EnergyCost(), inc.Utilization(), naive.Utilization())
		}
		if inc.Stats != naive.Stats {
			t.Fatalf("%s: stats diverge: %+v vs %+v", label, inc.Stats, naive.Stats)
		}
		if inc.Stats.Rejected == 0 {
			t.Fatalf("%s: no gap-fill probe was rejected; the instance does not exercise the filter", label)
		}
	}
}

// TestMinPowerMaterializationGuard is a noise-free work guard for the
// min-power stage: a rejected gap-fill probe must not materialize the
// profile (the tracker certifies the rejection locally and the undo
// leaves it clean), so one 500-task solve materializes about once per
// accepted move and once per scan, not once per probe.
func TestMinPowerMaterializationGuard(t *testing.T) {
	const n = 500
	res, mats, err := sched.MinPowerMaterializations(benchkit.Generate(n, 1), benchkit.Options(n))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	const slack = 8
	if limit := st.Moves + st.Scans + slack; mats > limit {
		t.Fatalf("min-power stage materialized %d profiles; want <= moves %d + scans %d + %d (rejected probes: %d)",
			mats, st.Moves, st.Scans, slack, st.Rejected)
	}
	if st.Rejected < 10*(st.Moves+st.Scans) {
		t.Fatalf("instance too easy to guard anything: %+v", st)
	}
}
