package editor

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/verify"
)

// TestHeteroSessionEditsResolvedPlan pins how a session meets machines
// and DVS levels: New edits the plan's resolved problem, so moves,
// metrics and reschedules all see the delays and powers the tasks run
// with, and a reschedule keeps every machine and level choice; a
// session cannot start from an unresolved heterogeneous problem.
func TestHeteroSessionEditsResolvedPlan(t *testing.T) {
	p, err := spec.ParseFile("../../testdata/hetero9.spec")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWithSchedule(p, r.Schedule, sched.Options{}); err == nil {
		t.Fatal("session started from the unresolved hetero9 problem")
	}

	s, err := New(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	view := s.Problem()
	if view == p || !view.Heterogeneous() {
		t.Fatal("session does not edit the resolved problem")
	}
	if got, want := s.Metrics(), verify.CheckAssigned(p, r.Schedule, r.Assignment).Metrics; got != want {
		t.Fatalf("session metrics %+v, plan metrics %+v", got, want)
	}
	if err := s.Lock("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Reschedule(); err != nil {
		t.Fatal(err)
	}
	if rep := verify.Check(view, s.Schedule()); !rep.OK() {
		t.Fatalf("rescheduled plan fails the resolved problem: %v", rep.Err())
	}
	for i, vt := range view.Tasks {
		if want := r.Tasks[i]; vt.Delay != want.Delay || vt.Power != want.Power {
			t.Fatalf("task %s runs %d s/%g W in the session, %d s/%g W in the plan", vt.Name, vt.Delay, vt.Power, want.Delay, want.Power)
		}
	}
}
