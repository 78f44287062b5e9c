package sched_test

import (
	"testing"

	"repro/internal/benchkit"
	"repro/internal/sched"
)

// TestStreamsBuiltOnlyWhenDrawn checks that the random streams are paid
// for only by the solves that draw them: the benchmark options (forward
// scan, start-at-gap slot) never build the working stream, a
// single-restart solve never builds the perturbation stream, and the
// default options, whose random scan order does draw, build the working
// stream and — with restarts — the perturbation stream.
func TestStreamsBuiltOnlyWhenDrawn(t *testing.T) {
	for _, n := range []int{10, 50, 200} {
		p := benchkit.Generate(n, 1)
		opts := benchkit.Options(n)
		opts.Restarts = 1
		work, perturb, err := sched.StreamsBuilt(p, opts)
		if err != nil {
			t.Fatalf("n=%d benchkit options: %v", n, err)
		}
		if work || perturb {
			t.Errorf("n=%d benchkit options: built working stream %v, perturbation stream %v; want neither", n, work, perturb)
		}

		work, perturb, err = sched.StreamsBuilt(p, sched.Options{Seed: 3, Restarts: 1})
		if err != nil {
			t.Fatalf("n=%d default options: %v", n, err)
		}
		if !work || perturb {
			t.Errorf("n=%d Restarts 1: built working stream %v, perturbation stream %v; want only the working stream", n, work, perturb)
		}

		if _, perturb, err = sched.StreamsBuilt(p, sched.Options{Seed: 3, Restarts: 3}); err != nil {
			t.Fatalf("n=%d Restarts 3: %v", n, err)
		} else if !perturb {
			t.Errorf("n=%d Restarts 3: perturbation stream never built", n)
		}
	}
}
