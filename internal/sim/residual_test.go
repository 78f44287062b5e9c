package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/service"
)

// refTimingConflict is the name-keyed timingConflict the index tables
// replaced, kept as the differential oracle of FuzzResidual: actual
// maps task names to realized delays.
func refTimingConflict(p *model.Problem, actual map[string]model.Time, s schedule.Schedule) (model.Time, bool) {
	idx := p.TaskIndex()
	best := model.Time(0)
	found := false
	consider := func(t model.Time) {
		if !found || t < best {
			best, found = t, true
		}
	}
	dur := func(name string, nominal model.Time) model.Time {
		if d, ok := actual[name]; ok && d > nominal {
			return d
		}
		return nominal
	}
	for i := range p.Tasks {
		ti := &p.Tasks[i]
		for j := range p.Tasks {
			tj := &p.Tasks[j]
			if i == j || (ti.Resource != tj.Resource && (ti.Machine == "" || ti.Machine != tj.Machine)) {
				continue
			}
			si, sj := s.Start[i], s.Start[j]
			if si > sj || (si == sj && ti.Name >= tj.Name) {
				continue
			}
			if si+dur(ti.Name, ti.Delay) > sj {
				consider(sj)
			}
		}
	}
	for _, c := range p.Constraints {
		if c.From == model.Anchor || c.To == model.Anchor {
			continue
		}
		u, v := idx[c.From], idx[c.To]
		if c.Min < p.Tasks[u].Delay {
			continue
		}
		su, sv := s.Start[u], s.Start[v]
		if su+dur(c.From, p.Tasks[u].Delay) > sv {
			consider(sv)
		}
	}
	return best, found
}

// refResidualProblem is the name-keyed residualProblem the index tables
// replaced, kept as the differential oracle of FuzzResidual: pending
// names the residual's tasks and promote the revealed delays of the
// in-flight ones.
func refResidualProblem(p *model.Problem, s schedule.Schedule, pending []string, elapsed model.Time, promote map[string]model.Time) (*model.Problem, int) {
	pend := make(map[string]bool, len(pending))
	for _, n := range pending {
		pend[n] = true
	}
	idx := p.TaskIndex()
	q := &model.Problem{
		Name:      fmt.Sprintf("%s@t%d", p.Name, elapsed),
		BasePower: p.BasePower,
		Pmax:      p.Pmax,
		Pmin:      p.Pmin,
		Machines:  p.Machines,
	}
	stretch := make(map[string]model.Time)
	for _, t := range p.Tasks {
		if !pend[t.Name] {
			continue
		}
		if d, ok := promote[t.Name]; ok && d > t.Delay {
			stretch[t.Name] = d - t.Delay
			t.Delay = d
		}
		q.Tasks = append(q.Tasks, t)
	}
	start := func(name string) model.Time {
		if name == model.Anchor {
			return 0
		}
		return s.Start[idx[name]]
	}
	drops := 0
	for _, c := range p.Constraints {
		fromPend := c.From != model.Anchor && pend[c.From]
		toPend := c.To != model.Anchor && pend[c.To]
		switch {
		case fromPend && toPend:
			if ext := stretch[c.From]; ext > 0 && c.Min >= p.Tasks[idx[c.From]].Delay {
				c.Min += ext
				if c.HasMax {
					c.Max += ext
				}
			}
			q.Constraints = append(q.Constraints, c)
		case !fromPend && toPend:
			if rel := start(c.From) + c.Min - elapsed; rel > 0 {
				q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.To, Min: rel})
			}
			if c.HasMax {
				if d := start(c.From) + c.Max - elapsed; d >= 0 {
					q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.To, Min: 0, Max: d, HasMax: true})
				} else {
					drops++
				}
			}
		case fromPend && !toPend:
			if d := start(c.To) - c.Min - elapsed; d >= 0 {
				q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.From, Min: 0, Max: d, HasMax: true})
			} else {
				drops++
			}
			if c.HasMax {
				if rel := start(c.To) - c.Max - elapsed; rel > 0 {
					q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.From, Min: rel})
				}
			}
		}
	}
	return q, drops
}

// actualByName lays name-keyed realized delays out by task index;
// unnamed tasks get 0, which never exceeds a nominal delay.
func actualByName(p *model.Problem, actual map[string]model.Time) []model.Time {
	out := make([]model.Time, len(p.Tasks))
	for i, t := range p.Tasks {
		out[i] = actual[t.Name]
	}
	return out
}

// conflictByName runs timingConflict on p as a nominal segment whose
// realized delays are given by name.
func conflictByName(p *model.Problem, actual map[string]model.Time, s schedule.Schedule) (model.Time, bool) {
	seg := nominalSegment(p)
	d := newRunScratch().delayedProblem(p, seg.orig, actualByName(p, actual))
	return timingConflict(p, d, &seg, s)
}

// residualByName runs residualProblem on p as a nominal segment with
// the pending tasks and the in-flight ones' revealed delays given by
// name.
func residualByName(p *model.Problem, s schedule.Schedule, pending []string, elapsed model.Time, revealed map[string]model.Time) (*model.Problem, int) {
	seg := nominalSegment(p)
	pend, inFlight := make([]bool, len(p.Tasks)), make([]bool, len(p.Tasks))
	for _, n := range pending {
		pend[p.TaskIndex()[n]] = true
	}
	for n := range revealed {
		inFlight[p.TaskIndex()[n]] = true
	}
	return residualProblem(p, s, &seg, actualByName(p, revealed), pend, inFlight, elapsed, &segment{})
}

// maskNames lists, in task order, the names of p's tasks marked in mask.
func maskNames(p *model.Problem, mask []bool) []string {
	var out []string
	for i, on := range mask {
		if on {
			out = append(out, p.Tasks[i].Name)
		}
	}
	return out
}

// TestSplitPendingInFlight replays a segment with exec and checks the
// pending and in-flight masks the run derives from the instant the
// replay stopped.
func TestSplitPendingInFlight(t *testing.T) {
	// dropout: the solar output drops to zero at t=3 with no battery.
	// a runs [0,4), b runs [2,6): both in flight at 3; c has not started.
	dropout := &model.Problem{
		Name: "dropout",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 4, Power: 3},
			{Name: "b", Resource: "B", Delay: 4, Power: 3},
			{Name: "c", Resource: "C", Delay: 2, Power: 3},
		},
		BasePower: 1,
	}
	dropSolar := power.NewSolar(10)
	dropSolar.AddPhase(3, 0)
	// boundary: a 20 J battery covers exactly seconds 0..3 of a 5 W
	// task on no solar; a is in flight when second 4 fails.
	boundary := &model.Problem{
		Name:  "boundary",
		Tasks: []model.Task{{Name: "a", Resource: "A", Delay: 6, Power: 5}},
	}
	// simple: a runs [0,3), b runs [3,5) on ample solar.
	simple := &model.Problem{
		Name: "ex",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 3, Power: 4},
			{Name: "b", Resource: "B", Delay: 2, Power: 6},
		},
		BasePower: 1,
	}
	for _, tc := range []struct {
		name                 string
		p                    *model.Problem
		start                []model.Time
		sup                  power.Supply
		bat                  *power.Battery
		until, stop          model.Time
		inFlight, notStarted []string
	}{
		{"solar dropout", dropout, []model.Time{0, 2, 6}, power.Supply{Solar: dropSolar}, nil, -1, 3, []string{"a", "b"}, []string{"c"}},
		{"battery boundary", boundary, []model.Time{0}, power.Supply{Solar: power.NewSolar(0)}, &power.Battery{MaxPower: 10, Capacity: 20}, -1, 4, []string{"a"}, nil},
		{"partial replay", simple, []model.Time{0, 3}, power.Supply{Solar: power.NewSolar(10)}, nil, 2, 2, []string{"a"}, []string{"b"}},
		// A start exactly at the stop instant is not started.
		{"start at stop", simple, []model.Time{0, 3}, power.Supply{Solar: power.NewSolar(10)}, nil, 3, 3, nil, []string{"b"}},
		// Beyond the finish the replay completes: nothing is pending.
		{"complete", simple, []model.Time{0, 3}, power.Supply{Solar: power.NewSolar(10)}, nil, 99, 5, nil, nil},
	} {
		s := schedule.Schedule{Start: tc.start}
		rep, _ := exec.ExecuteUntil(tc.p, s, tc.sup, tc.bat, 0, tc.until)
		if rep.StoppedAt != tc.stop {
			t.Fatalf("%s: stopped at %d, want %d", tc.name, rep.StoppedAt, tc.stop)
		}
		sc := newRunScratch()
		n := sc.split(tc.p, s, rep.StoppedAt)
		notStarted := make([]bool, len(sc.pending))
		for i := range notStarted {
			notStarted[i] = sc.pending[i] && !sc.inFlight[i]
		}
		if got := maskNames(tc.p, sc.inFlight); !reflect.DeepEqual(got, tc.inFlight) {
			t.Errorf("%s: in flight = %v, want %v", tc.name, got, tc.inFlight)
		}
		if got := maskNames(tc.p, notStarted); !reflect.DeepEqual(got, tc.notStarted) {
			t.Errorf("%s: not started = %v, want %v", tc.name, got, tc.notStarted)
		}
		if n != len(tc.inFlight)+len(tc.notStarted) {
			t.Errorf("%s: split counted %d pending, want %d", tc.name, n, len(tc.inFlight)+len(tc.notStarted))
		}
	}
}

// sameResidual reports how two residual problems differ ("" when they
// are the same problem; an empty constraint list equals a nil one).
func sameResidual(got, want *model.Problem) string {
	switch {
	case got.Name != want.Name:
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	case got.BasePower != want.BasePower || got.Pmax != want.Pmax || got.Pmin != want.Pmin:
		return "power levels differ"
	case !reflect.DeepEqual(got.Machines, want.Machines):
		return "machines differ"
	case !reflect.DeepEqual(got.Tasks, want.Tasks):
		return fmt.Sprintf("tasks %v, want %v", got.Tasks, want.Tasks)
	case len(got.Constraints) != len(want.Constraints):
		return fmt.Sprintf("constraints %v, want %v", got.Constraints, want.Constraints)
	}
	for k := range got.Constraints {
		if got.Constraints[k] != want.Constraints[k] {
			return fmt.Sprintf("constraint %d = %v, want %v", k, got.Constraints[k], want.Constraints[k])
		}
	}
	return ""
}

// checkTables checks a segment's tables against its problem by name:
// orig against the nominal problem's task names, from/to against each
// constraint's endpoints.
func checkTables(nominal, p *model.Problem, seg *segment) string {
	if len(seg.orig) != len(p.Tasks) || len(seg.from) != len(p.Constraints) || len(seg.to) != len(p.Constraints) {
		return fmt.Sprintf("tables sized %d/%d/%d for %d tasks, %d constraints",
			len(seg.orig), len(seg.from), len(seg.to), len(p.Tasks), len(p.Constraints))
	}
	for i, t := range p.Tasks {
		if nominal.Tasks[seg.orig[i]].Name != t.Name {
			return fmt.Sprintf("task %d (%s) maps to nominal %s", i, t.Name, nominal.Tasks[seg.orig[i]].Name)
		}
	}
	name := func(u int) string {
		if u < 0 {
			return model.Anchor
		}
		return p.Tasks[u].Name
	}
	for k, c := range p.Constraints {
		if name(seg.from[k]) != c.From || name(seg.to[k]) != c.To {
			return fmt.Sprintf("constraint %d (%s -> %s) maps to %s -> %s", k, c.From, c.To, name(seg.from[k]), name(seg.to[k]))
		}
	}
	return ""
}

// FuzzResidual is the differential check of the index path: on small
// benchkit problems (degenerate, or with machines and random pins) it
// draws realized delays, a schedule and a stop instant, and checks that
// timingConflict and residualProblem agree with the name-keyed oracles
// on the conflict instant, the residual's tasks and constraints and the
// drop count — and that the residual's tables name the right tasks. A
// second generation replans the residual itself, so remapped tables
// are checked too.
func FuzzResidual(f *testing.F) {
	f.Add(uint8(6), int64(1), uint8(0), int64(7))
	f.Add(uint8(12), int64(3), uint8(2), int64(2))
	f.Add(uint8(20), int64(9), uint8(3), int64(5))
	f.Add(uint8(3), int64(-4), uint8(1), int64(11))
	f.Fuzz(func(t *testing.T, size uint8, seed int64, machines uint8, draw int64) {
		n, m := 2+int(size%23), int(machines%4)
		nominal := benchkit.Generate(n, seed)
		if m > 0 {
			nominal = benchkit.GenerateMachines(n, m, seed)
		}
		rng := rand.New(rand.NewSource(draw))
		if m > 0 {
			for i := range nominal.Tasks {
				if k := rng.Intn(m + 1); k < m {
					nominal.Tasks[i].Machine = nominal.Machines[k].Name
				}
			}
		}
		// Realized delays, some below the nominal (a promoted delay can
		// exceed the fault draw's) and all positive.
		actual := make([]model.Time, n)
		byName := make(map[string]model.Time, n)
		for i, task := range nominal.Tasks {
			actual[i] = task.Delay*model.Time(1+rng.Intn(3)) - model.Time(rng.Intn(2))
			byName[task.Name] = actual[i]
		}
		sc := newRunScratch()
		p, seg, spare := nominal, nominalSegment(nominal), &sc.segs[0]
		for gen := 0; gen < 2; gen++ {
			horizon := 1
			for _, task := range p.Tasks {
				horizon += int(task.Delay) / 2
			}
			s := schedule.Schedule{Start: make([]model.Time, len(p.Tasks))}
			for i := range s.Start {
				s.Start[i] = model.Time(rng.Intn(horizon))
			}
			d := sc.delayedProblem(p, seg.orig, actual)
			at, ok := timingConflict(p, d, &seg, s)
			if wantAt, wantOK := refTimingConflict(p, byName, s); at != wantAt || ok != wantOK {
				t.Fatalf("gen %d: conflict = %d, %v, oracle %d, %v", gen, at, ok, wantAt, wantOK)
			}
			stop := model.Time(rng.Intn(int(s.Finish(d.Tasks)) + 1))
			if sc.split(d, s, stop) == 0 {
				return
			}
			revealed := make(map[string]model.Time)
			for _, name := range maskNames(p, sc.inFlight) {
				revealed[name] = byName[name]
			}
			elapsed := stop + model.Time(rng.Intn(4))
			q, drops := residualProblem(p, s, &seg, actual, sc.pending, sc.inFlight, elapsed, spare)
			want, wantDrops := refResidualProblem(p, s, maskNames(p, sc.pending), elapsed, revealed)
			if diff := sameResidual(q, want); diff != "" {
				t.Fatalf("gen %d: residual at %d: %s", gen, elapsed, diff)
			}
			if drops != wantDrops {
				t.Fatalf("gen %d: drops = %d, oracle %d", gen, drops, wantDrops)
			}
			if diff := checkTables(nominal, q, spare); diff != "" {
				t.Fatalf("gen %d: %s", gen, diff)
			}
			p, seg, spare = q, *spare, &sc.segs[1]
		}
	})
}

// TestAdoptedViewKeepsResidualOrder pins the invariant the segment
// tables rest on: the resolved problem a replan adopts — the
// EffectiveProblem of each stage's result, for the pipeline and for
// both library fallbacks — lists the residual's tasks and constraints
// in the residual's order, so the tables built for the residual index
// the adopted view too.
func TestAdoptedViewKeepsResidualOrder(t *testing.T) {
	missions := []struct {
		name string
		m    Mission
	}{{"chain", chainMission()}, {"hetero9", heteroMission(t)}, {"rover", PaperMission()}}
	for _, tc := range missions {
		cfg := runConfig{Mission: tc.m, Svc: service.New(service.Config{Workers: 1})}
		nom := hoistNominal(context.Background(), cfg)
		if !nom.ok {
			t.Fatalf("%s: nominal plan failed", tc.name)
		}
		if diff := checkTables(nom.p0, nom.p0, &nom.seg); diff != "" {
			t.Fatalf("%s: nominal tables: %s", tc.name, diff)
		}
		actual := make([]model.Time, len(nom.p0.Tasks))
		for i, task := range nom.p0.Tasks {
			actual[i] = task.Delay + task.Delay/2 // every task overruns
		}
		sc := newRunScratch()
		d := sc.delayedProblem(nom.p0, nom.seg.orig, actual)
		for _, frac := range []model.Time{4, 2} {
			stop := nom.finish0 / frac
			if sc.split(d, nom.s0, stop) == 0 {
				t.Fatalf("%s: nothing pending at %d", tc.name, stop)
			}
			var next segment
			q, _ := residualProblem(nom.p0, nom.s0, &nom.seg, actual, sc.pending, sc.inFlight, stop, &next)
			q.Pmax = 0 // unconstrained: every stage schedules
			for _, st := range []service.Stage{service.StageMinPower, service.StageMaxPower, service.StageTiming} {
				r, err := cfg.Svc.ScheduleFPCtx(context.Background(), q.Fingerprint(), q, cfg.Opts, st)
				if err != nil {
					t.Fatalf("%s at %d, %s: %v", tc.name, stop, st, err)
				}
				if diff := checkTables(nom.p0, r.EffectiveProblem(), &next); diff != "" {
					t.Errorf("%s at %d, %s view: %s", tc.name, stop, st, diff)
				}
			}
		}
	}
}
