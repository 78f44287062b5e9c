package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/sched"
)

// TestDifferentialBenchkit200 audits the incremental core on benchkit
// ladder instances, where the min-power stage probes thousands of gap
// fills and the tracker's certified rejection settles almost all of
// them. The small generated corpus of the in-package differential suite
// rarely reaches that regime. Every scan order and slot choice runs
// (the default heuristic combinations); every answer taken from the
// incremental core must match its from-scratch reference, and the
// audited run's schedule, profile, metrics and work counters must equal
// an unaudited run's.
func TestDifferentialBenchkit200(t *testing.T) {
	if testing.Short() {
		t.Skip("scale differential skipped in -short mode")
	}
	const n = 200
	for seed := int64(1); seed <= 5; seed++ {
		p := benchkit.Generate(n, seed)
		opts := benchkit.Options(n)
		opts.ScanOrders, opts.SlotChoices, opts.MaxScans = nil, nil, 0
		label := fmt.Sprintf("benchkit %d seed %d", n, seed)
		var aud *sched.Result
		var err error
		checks, auditErr := sched.Audit(func() { aud, err = sched.MinPower(p, opts) })
		if err != nil {
			t.Fatalf("%s: audited run: %v", label, err)
		}
		if auditErr != nil {
			t.Fatalf("%s: %v", label, auditErr)
		}
		plain, err := sched.MinPower(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !aud.Schedule.Equal(plain.Schedule) {
			t.Fatalf("%s: schedules diverge\n audited %v\n plain   %v", label, aud.Schedule.Start, plain.Schedule.Start)
		}
		if !reflect.DeepEqual(aud.Profile.Segs, plain.Profile.Segs) {
			t.Fatalf("%s: profiles diverge", label)
		}
		if aud.EnergyCost() != plain.EnergyCost() || aud.Utilization() != plain.Utilization() {
			t.Fatalf("%s: metrics diverge: cost %v vs %v, util %v vs %v",
				label, aud.EnergyCost(), plain.EnergyCost(), aud.Utilization(), plain.Utilization())
		}
		if aud.Stats != plain.Stats {
			t.Fatalf("%s: stats diverge: %+v vs %+v", label, aud.Stats, plain.Stats)
		}
		if plain.Stats.Rejected == 0 || checks["rejects"] == 0 {
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

// TestAuditDoesNotPerturbTracker: the audit never asks the tracker for a
// profile, so an audited 500-task solve does exactly the work of an
// unaudited one — same stats, same min-power materialization count.
func TestAuditDoesNotPerturbTracker(t *testing.T) {
	if testing.Short() {
		t.Skip("audited 500-task solve skipped in -short mode")
	}
	const n = 500
	p, opts := benchkit.Generate(n, 1), benchkit.Options(n)
	plain, plainMats, err := sched.MinPowerMaterializations(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	var aud *sched.Result
	var audMats int
	_, auditErr := sched.Audit(func() { aud, audMats, err = sched.MinPowerMaterializations(p, opts) })
	if err != nil || auditErr != nil {
		t.Fatalf("audited run: %v, audit: %v", err, auditErr)
	}
	if aud.Stats != plain.Stats || audMats != plainMats {
		t.Fatalf("audit perturbed the run: stats %+v / %d materializations, unaudited %+v / %d",
			aud.Stats, audMats, plain.Stats, plainMats)
	}
}

// TestSolveLargeCounterPin pins the work counters of three instances of
// the benchmark's solve-large corpus (instance i has 500 + 500*i/47
// tasks and seed i+1; there is no 750-task instance, so the middle one,
// 755 tasks, stands in). The counters are deterministic, so any change
// to which moves the min-power stage tries, or in what order, moves
// them exactly.
func TestSolveLargeCounterPin(t *testing.T) {
	if testing.Short() {
		t.Skip("solve-large instances skipped in -short mode")
	}
	for _, c := range []struct {
		i    int
		want sched.Stats
	}{
		{0, sched.Stats{SpikeRounds: 9, Scans: 3, Moves: 71, Rejected: 2253}},
		{24, sched.Stats{SpikeRounds: 2, Scans: 3, Moves: 184, Rejected: 3183}},
		{47, sched.Stats{SpikeRounds: 5, Scans: 3, Moves: 65, Rejected: 12565}},
	} {
		n := 500 + 500*c.i/47
		res, err := sched.MinPower(benchkit.Generate(n, int64(c.i+1)), benchkit.Options(n))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats != c.want {
			t.Errorf("instance %d (%d tasks): stats %#v, want %#v", c.i, n, res.Stats, c.want)
		}
	}
}
