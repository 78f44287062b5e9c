package verify

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/spec"
)

// TestCheckRefusesUnresolvedHetero pins the trap Check closes: a
// heterogeneous problem that still leaves its tasks a machine or level
// choice has no single answer, so Check reports exactly one
// KindAssignment violation instead of judging the nominal tasks.
func TestCheckRefusesUnresolvedHetero(t *testing.T) {
	p, err := spec.ParseFile("../../testdata/hetero9.spec")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(p, r.Schedule)
	if len(rep.Violations) != 1 || rep.Violations[0].Kind != KindAssignment {
		t.Fatalf("Check on unresolved hetero9 = %v, want exactly one %s", rep.Violations, KindAssignment)
	}
	if rep := Check(r.EffectiveProblem(), r.Schedule); !rep.OK() {
		t.Fatalf("Check on the resolved problem: %v", rep.Err())
	}
	// A machine-less problem with a level curve is unresolved too.
	q := &model.Problem{Name: "dvs", Tasks: []model.Task{{
		Name: "a", Resource: "R", Delay: 2, Power: 4,
		Levels: []model.DVSLevel{{Mult: 1, Power: 4}, {Mult: 2, Power: 1}},
	}}}
	if rep := Check(q, r.Schedule); len(rep.Violations) != 1 || rep.Violations[0].Kind != KindAssignment {
		t.Fatalf("Check on a two-level task = %v, want exactly one %s", rep.Violations, KindAssignment)
	}
}

// TestCheckResolvedMatchesCheckAssigned shows the resolved view loses
// nothing: on heterogeneous ladder instances, Check on a plan's
// EffectiveProblem gives exactly the violations and metrics that
// CheckAssigned gives on the original problem under the plan's
// assignment — for the plan itself and for broken variants of it.
func TestCheckResolvedMatchesCheckAssigned(t *testing.T) {
	plans := 0
	for _, n := range []int{10, 30} {
		for _, m := range []int{2, 4} {
			for seed := int64(1); seed <= 4; seed++ {
				p := benchkit.GenerateMachines(n, m, seed)
				r, err := sched.Run(p, sched.Options{})
				if err != nil {
					continue // an over-budget draw; the ladder allows them
				}
				plans++
				view := r.EffectiveProblem()
				for k := 0; k <= 2; k++ {
					s := r.Schedule.Clone()
					switch k {
					case 1: // everything at once: resource, machine, timing and power violations
						clear(s.Start)
					case 2: // one task before time 0
						s.Start[int(seed)%n] = -1
					}
					name := fmt.Sprintf("n=%d m=%d seed=%d variant %d", n, m, seed, k)
					got, want := Check(view, s), CheckAssigned(p, s, r.Assignment)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Check(view) = %+v, CheckAssigned = %+v", name, got, want)
					}
					if got.OK() != (k == 0) {
						t.Fatalf("%s: OK = %v: %v", name, got.OK(), got.Err())
					}
				}
			}
		}
	}
	if plans < 8 {
		t.Fatalf("only %d of 16 ladder instances scheduled", plans)
	}
}
