package paperex

import (
	"testing"

	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/schedule"
)

func TestNineValidates(t *testing.T) {
	if err := Nine().Validate(); err != nil {
		t.Fatal(err)
	}
	p := Nine()
	if len(p.Tasks) != 9 {
		t.Fatalf("tasks = %d, want 9", len(p.Tasks))
	}
	if len(p.Resources()) != 3 {
		t.Fatalf("resources = %v, want A,B,C", p.Resources())
	}
}

func TestNineReturnsFreshCopies(t *testing.T) {
	a, b := Nine(), Nine()
	a.Tasks[0].Power = 99
	if b.Tasks[0].Power == 99 {
		t.Fatal("Nine shares state between calls")
	}
}

// TestFig2TimingScheduleHasSpike: the time-valid schedule violates the
// max power constraint, as in the paper's Fig. 2.
func TestFig2TimingScheduleHasSpike(t *testing.T) {
	r, err := sched.Timing(Nine(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.CheckTimeValid(r.Compiled.Base, r.Compiled, r.Schedule); err != nil {
		t.Fatalf("not time-valid: %v", err)
	}
	if len(r.Profile.Spikes(Pmax)) == 0 {
		t.Fatalf("expected a power spike; profile %v", r.Profile)
	}
}

// TestFig5MaxPowerRemovesSpike: after max-power scheduling the
// schedule is valid (paper Fig. 5).
func TestFig5MaxPowerRemovesSpike(t *testing.T) {
	r, err := sched.MaxPower(Nine(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Profile.Valid(Pmax) {
		t.Fatalf("spikes remain: %v", r.Profile.Spikes(Pmax))
	}
	if err := schedule.CheckTimeValid(r.Compiled.Base, r.Compiled, r.Schedule); err != nil {
		t.Fatalf("not time-valid: %v", err)
	}
}

// TestFig7MinPowerImproves: the min-power scheduler strictly improves
// utilization over the merely-valid schedule at unchanged performance
// (paper Fig. 7 improves on Fig. 5).
func TestFig7MinPowerImproves(t *testing.T) {
	rm, err := sched.MaxPower(Nine(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := sched.MinPower(Nine(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Finish() > rm.Finish() {
		t.Errorf("min-power degraded performance: %d -> %d", rm.Finish(), rf.Finish())
	}
	if rf.Utilization() <= rm.Utilization() {
		t.Errorf("utilization did not improve: %.4f -> %.4f", rm.Utilization(), rf.Utilization())
	}
	if rf.EnergyCost() >= rm.EnergyCost() {
		t.Errorf("energy cost did not drop: %.1f -> %.1f", rm.EnergyCost(), rf.EnergyCost())
	}
}

// TestFig7ValidityRange: the final schedule is valid for every budget
// at or above the example's Pmax of 16 W — the paper's "can be directly
// applied to all cases where Pmax >= 16" remark — because its profile
// peaks at exactly 16 W.
func TestFig7ValidityRange(t *testing.T) {
	rf, err := sched.MinPower(Nine(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := runtime.NewEntry("fig7", Nine(), rf.Schedule)
	if e.RequiredPmax != Pmax {
		t.Errorf("RequiredPmax = %g, want %g", e.RequiredPmax, float64(Pmax))
	}
	for _, pmax := range []float64{16, 17, 100} {
		if !e.ValidFor(pmax) {
			t.Errorf("schedule invalid at Pmax=%g", pmax)
		}
	}
	if e.ValidFor(15.9) {
		t.Error("schedule claimed valid below its peak")
	}
}
