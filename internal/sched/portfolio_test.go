package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestPortfolioMatchesUnboundedReference checks the restart portfolio's
// incumbent bound against a reference that has none: each restart run
// alone and the outcomes folded with the portfolio's total order. The
// bound abandons a restart as soon as its timing finish strictly exceeds
// the published incumbent's finish; it must never change the winner,
// its assignment, its profile or its work counters, whatever the
// restart count, the worker count, or the order in which incumbents
// arrive. The corpus must contain a restart the bound can prune, or the
// comparison proves nothing.
func TestPortfolioMatchesUnboundedReference(t *testing.T) {
	const n = 50
	type instance struct {
		label string
		p     *model.Problem
	}
	var corpus []instance
	for seed := int64(1); seed <= 3; seed++ {
		corpus = append(corpus, instance{fmt.Sprintf("homogeneous seed %d", seed), benchkit.Generate(n, seed)})
	}
	for seed := int64(1); seed <= 2; seed++ {
		corpus = append(corpus, instance{fmt.Sprintf("machines4 seed %d", seed), benchkit.GenerateMachines(n, 4, seed)})
	}
	prunable := false
	for _, in := range corpus {
		for _, restarts := range []int{8, 32} {
			opts := benchkit.Options(n)
			opts.Restarts = restarts
			want, timingFinish, err := sched.UnboundedPortfolio(in.p, opts)
			if err != nil {
				t.Fatalf("%s restarts=%d: reference: %v", in.label, restarts, err)
			}
			for _, f := range timingFinish {
				if f > want.Finish() {
					prunable = true
				}
			}
			for _, workers := range []int{1, 2, 8} {
				opts.Workers = workers
				label := fmt.Sprintf("%s restarts=%d workers=%d", in.label, restarts, workers)
				got, err := sched.MinPower(in.p, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !got.Schedule.Equal(want.Schedule) {
					t.Fatalf("%s: schedules differ\n  got  %v\n  want %v", label, got.Schedule.Start, want.Schedule.Start)
				}
				if !reflect.DeepEqual(got.Assignment, want.Assignment) {
					t.Fatalf("%s: assignments differ\n  got  %v\n  want %v", label, got.Assignment, want.Assignment)
				}
				if got.Stats != want.Stats {
					t.Fatalf("%s: stats differ: got %+v want %+v", label, got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(got.Profile.Segs, want.Profile.Segs) {
					t.Fatalf("%s: profiles differ", label)
				}
			}
		}
	}
	if !prunable {
		t.Fatal("no restart's timing finish exceeds its portfolio's winning finish: the incumbent bound is never exercised")
	}
}
