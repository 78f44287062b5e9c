package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/schedule"
)

// TestCompactRecoversStrandedIdle: spike elimination pushes the second
// task past the spike but leaves a hole the task could legally slide
// back into once the first finishes; compaction reclaims it.
func TestCompactRecoversStrandedIdle(t *testing.T) {
	p := &model.Problem{
		Name: "strand",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 3, Power: 6},
			{Name: "b", Resource: "B", Delay: 5, Power: 6},
			{Name: "c", Resource: "C", Delay: 3, Power: 6},
		},
		Pmax: 13,
	}
	plain, err := Run(p.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Run(p.Clone(), Options{Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Finish() > plain.Finish() {
		t.Fatalf("compaction lengthened the schedule: %d -> %d", plain.Finish(), compacted.Finish())
	}
	if err := schedule.CheckTimeValid(compacted.Compiled.Base, compacted.Compiled, compacted.Schedule); err != nil {
		t.Fatal(err)
	}
	if !compacted.Profile.Valid(p.Pmax) {
		t.Fatal("compaction introduced a spike")
	}
}

// TestQuickCompactNeverWorse: on random problems the compacting
// pipeline finishes no later than the plain one, stays valid, and
// leaves the rover's already-tight schedules untouched.
func TestQuickCompactNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		p := genProblem(seed)
		plain, err := Run(p.Clone(), Options{})
		if err != nil {
			return false
		}
		compacted, err := Run(p.Clone(), Options{Compact: true})
		if err != nil {
			t.Logf("seed %d: compact run failed: %v", seed, err)
			return false
		}
		if compacted.Finish() > plain.Finish() {
			t.Logf("seed %d: finish %d -> %d", seed, plain.Finish(), compacted.Finish())
			return false
		}
		if err := schedule.CheckTimeValid(compacted.Compiled.Base, compacted.Compiled, compacted.Schedule); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return compacted.Profile.Valid(p.Pmax)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCompactGraphStaysConsistent: after compaction the working graph's
// longest-path solution still equals the reported schedule (the
// invariant the min-power machinery depends on).
func TestCompactGraphStaysConsistent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := genProblem(seed)
		r, g, err := finalGraph(p, Options{Compact: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dist, ok := g.LongestFrom(r.Compiled.Anchor)
		if !ok {
			t.Fatalf("seed %d: final graph infeasible", seed)
		}
		for v := range r.Schedule.Start {
			if dist[v] != r.Schedule.Start[v] {
				t.Fatalf("seed %d: task %d graph %d != schedule %d",
					seed, v, dist[v], r.Schedule.Start[v])
			}
		}
	}
}
