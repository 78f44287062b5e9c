package corners

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/verify"
)

// heteroModel gives every task of p a corner spread around its power.
func heteroModel(p *model.Problem) Model {
	m := Model{Tasks: map[string]TriPower{}, Base: TriPower{}}
	for _, t := range p.Tasks {
		m.Tasks[t.Name] = TriPower{Min: t.Power / 2, Typ: t.Power * 3 / 4, Max: t.Power}
	}
	return m
}

// TestHeteroCorners pins how corner analysis meets machines and DVS
// levels: a problem whose levels or machine power scales would rescale
// a corner power is refused, and one whose machines differ only in
// speed is planned and evaluated on the plan's resolved problem, so
// every corner is judged under the machine choices the max corner made.
func TestHeteroCorners(t *testing.T) {
	hetero9, err := spec.ParseFile("../../testdata/hetero9.spec")
	if err != nil {
		t.Fatal(err)
	}
	m := heteroModel(hetero9)
	if _, err := Conservative(hetero9, m, sched.Options{}); err == nil {
		t.Fatal("Conservative accepted hetero9, whose levels and power scales rescale corner powers")
	}
	if _, err := PerCorner(hetero9, m, sched.Options{}); err == nil {
		t.Fatal("PerCorner accepted hetero9")
	}

	// Speed-only machines: corner powers keep their meaning.
	p := hetero9.Clone()
	p.Machines[1].PowerScale = 1
	for i := range p.Tasks {
		p.Tasks[i].Levels = nil
	}
	rep, err := Conservative(p, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range rep.PerCorner {
		if !cm.Valid {
			t.Errorf("conservative schedule invalid at the %s corner", cm.Corner)
		}
	}
	per, err := PerCorner(p, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range per {
		if chk := verify.Check(pc.Problem, pc.Result.Schedule); !chk.OK() {
			t.Errorf("%s corner: schedule fails its resolved problem: %v", pc.Corner, chk.Err())
		}
		if pc.Metrics.Finish != pc.Result.Finish() {
			t.Errorf("%s corner: metrics finish %d, plan finish %d", pc.Corner, pc.Metrics.Finish, pc.Result.Finish())
		}
	}
}
