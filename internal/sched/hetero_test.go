package sched

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/rover"
	"repro/internal/spec"
	"repro/internal/verify"
)

// genHeteroProblem builds a small random heterogeneous problem: 1-2
// machines with distinct speed/power ratings, 3-4 tasks on 2 resources,
// optional DVS slow-down levels, occasional pins, and sparse
// precedences. Sized so the exact solver can exhaust the (assignment x
// level x start) space.
func genHeteroProblem(seed int64) *model.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &model.Problem{Name: fmt.Sprintf("hetero-%d", seed)}
	m := 1 + rng.Intn(2)
	speeds := []float64{1, 1.5, 2}
	scales := []float64{1, 1.25, 1.5}
	for j := 0; j < m; j++ {
		p.Machines = append(p.Machines, model.Machine{
			Name:       fmt.Sprintf("m%d", j),
			Speed:      speeds[rng.Intn(len(speeds))],
			PowerScale: scales[rng.Intn(len(scales))],
		})
	}
	n := 3 + rng.Intn(2)
	for i := 0; i < n; i++ {
		t := model.Task{
			Name:     fmt.Sprintf("t%d", i),
			Resource: fmt.Sprintf("R%d", rng.Intn(2)),
			Delay:    1 + rng.Intn(3),
			Power:    1 + rng.Float64()*6,
		}
		if rng.Float64() < 0.5 {
			t.Levels = []model.DVSLevel{
				{Mult: 1, Power: t.Power},
				{Mult: 1.5, Power: t.Power * 0.6},
			}
		}
		if rng.Float64() < 0.25 {
			t.Machine = p.Machines[rng.Intn(m)].Name
		}
		p.AddTask(t)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				p.MinSep(p.Tasks[i].Name, p.Tasks[j].Name, p.Tasks[i].Delay)
			}
		}
	}
	// A generous budget that still bites occasionally: the two largest
	// nominal powers at the largest machine rating, plus slack.
	first, second := 0.0, 0.0
	for _, t := range p.Tasks {
		if t.Power > first {
			first, second = t.Power, first
		} else if t.Power > second {
			second = t.Power
		}
	}
	p.Pmax = (first + second) * 1.5 * 1.3
	p.Pmin = p.Pmax / 3
	return p
}

// heteroOptions is the option matrix the heterogeneous differential
// suite runs under: the plain pipeline, compaction, and a restart
// portfolio at one, two, and eight workers.
func heteroOptions() []Options {
	return []Options{
		{Seed: 3},
		{Seed: 3, Compact: true},
		{Seed: 9, Restarts: 8, Workers: 1},
		{Seed: 9, Restarts: 8, Workers: 2},
		{Seed: 9, Restarts: 8, Workers: 8},
	}
}

// TestHeteroMachinesRunInParallel pins the earliest-finish choice
// ordering: two identical unit machines and two independent equal tasks
// must overlap in time on different machines (finish 4), not pile onto
// one machine greedily (finish 8).
func TestHeteroMachinesRunInParallel(t *testing.T) {
	p := &model.Problem{
		Name: "two-machines",
		Machines: []model.Machine{
			{Name: "m0", Speed: 1, PowerScale: 1},
			{Name: "m1", Speed: 1, PowerScale: 1},
		},
	}
	p.AddTask(model.Task{Name: "a", Resource: "Ra", Delay: 4, Power: 1})
	p.AddTask(model.Task{Name: "b", Resource: "Rb", Delay: 4, Power: 1})
	r, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Finish() != 4 {
		t.Fatalf("finish = %d, want 4 (tasks should spread across machines); assignment %v, starts %v",
			r.Finish(), r.Assignment, r.Schedule.Start)
	}
	if r.Assignment[0].Machine == r.Assignment[1].Machine {
		t.Fatalf("both tasks assigned machine %d", r.Assignment[0].Machine)
	}
	if rep := verify.CheckAssigned(p, r.Schedule, r.Assignment); !rep.OK() {
		t.Fatal(rep.Err())
	}
}

// TestHeteroDVSPicksFastLevel checks that a task with a slow-down curve
// still schedules and that the chosen level's effective values land in
// Result.Tasks.
func TestHeteroDVSPicksLevel(t *testing.T) {
	p := &model.Problem{Name: "dvs", Pmax: 12, Pmin: 0}
	p.AddTask(model.Task{
		Name: "a", Resource: "R", Delay: 4, Power: 10,
		Levels: []model.DVSLevel{{Mult: 1, Power: 10}, {Mult: 2, Power: 4}},
	})
	p.AddTask(model.Task{Name: "b", Resource: "S", Delay: 4, Power: 10})
	r, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckAssigned(p, r.Schedule, r.Assignment); !rep.OK() {
		t.Fatal(rep.Err())
	}
	got := r.Tasks[0]
	want, err := p.ChoiceFor(0, r.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if got.Delay != want.Delay || got.Power != want.Power {
		t.Fatalf("Result.Tasks[0] = {Delay:%d Power:%g}, choice says {Delay:%d Power:%g}",
			got.Delay, got.Power, want.Delay, want.Power)
	}
	if r.EffectiveProblem() == p {
		t.Fatal("EffectiveProblem returned the original problem for a heterogeneous result")
	}
}

// embedUnitMachines rewrites a degenerate problem into an explicitly
// heterogeneous one that means exactly the same thing: one unit-speed,
// unit-rating machine per resource, every task pinned to its resource's
// machine, and every task given an explicit single nominal level.
func embedUnitMachines(p *model.Problem) *model.Problem {
	q := p.Clone()
	for _, r := range p.Resources() {
		q.Machines = append(q.Machines, model.Machine{Name: "mach-" + r, Speed: 1, PowerScale: 1})
	}
	for i := range q.Tasks {
		q.Tasks[i].Machine = "mach-" + q.Tasks[i].Resource
		q.Tasks[i].Levels = []model.DVSLevel{{Mult: 1, Power: q.Tasks[i].Power}}
	}
	return q
}

// TestDegenerateEmbedding proves the paper's model is a true degenerate
// case rather than a legacy branch: a problem rewritten with explicit
// per-resource unit machines and explicit nominal levels takes the
// heterogeneous code paths (assignment bookkeeping, choice loops,
// machine-edge logic) yet reproduces the degenerate run's schedule,
// profile, stats, and metrics exactly, for every testdata spec and
// every rover iteration, under both golden option sets.
func TestDegenerateEmbedding(t *testing.T) {
	probs := map[string]*model.Problem{}
	docs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range docs {
		p, err := spec.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if p.Heterogeneous() {
			continue // the embedding is defined for degenerate inputs only
		}
		probs["spec-"+filepath.Base(path)] = p
	}
	for _, c := range []rover.Case{rover.Best, rover.Typical, rover.Worst} {
		for _, k := range []rover.IterationKind{rover.Cold, rover.ColdPreheat, rover.Warm} {
			probs[fmt.Sprintf("rover-%d-%d", c, k)] = rover.BuildIteration(c, k)
		}
	}
	optSets := map[string]Options{
		"default":          {},
		"compact-restarts": {Seed: 9, Compact: true, Restarts: 4, Workers: 2},
	}
	for name, p := range probs {
		emb := embedUnitMachines(p)
		if !emb.Heterogeneous() {
			t.Fatalf("%s: embedded problem is not heterogeneous", name)
		}
		for oname, opts := range optSets {
			want, err1 := Run(p.Clone(), opts)
			got, err2 := Run(emb.Clone(), opts)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s/%s: error divergence: degenerate=%v embedded=%v", name, oname, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !got.Schedule.Equal(want.Schedule) {
				t.Fatalf("%s/%s: schedules diverge\n degenerate %v\n embedded   %v",
					name, oname, want.Schedule.Start, got.Schedule.Start)
			}
			if !reflect.DeepEqual(got.Profile.Segs, want.Profile.Segs) {
				t.Fatalf("%s/%s: profiles diverge", name, oname)
			}
			if got.Stats != want.Stats {
				t.Fatalf("%s/%s: stats diverge: %+v vs %+v", name, oname, got.Stats, want.Stats)
			}
			if got.Finish() != want.Finish() ||
				math.Float64bits(got.EnergyCost()) != math.Float64bits(want.EnergyCost()) ||
				math.Float64bits(got.Utilization()) != math.Float64bits(want.Utilization()) {
				t.Fatalf("%s/%s: metrics diverge", name, oname)
			}
			// The embedded run must also certify under the assignment
			// view, with every task on its resource's machine.
			if rep := verify.CheckAssigned(emb, got.Schedule, got.Assignment); !rep.OK() {
				t.Fatalf("%s/%s: embedded schedule invalid: %v", name, oname, rep.Err())
			}
		}
	}
}

// TestHeteroDifferentialVsExact cross-checks the heterogeneous pipeline
// against the exact (assignment x level x start) enumeration over the
// random corpus and the whole option matrix:
//
//   - every heuristic schedule must pass the independent oracle under
//     its assignment (machine conflicts included);
//   - no heuristic finish may beat the proven optimal finish;
//   - the heuristic must hit the exact optimum on a healthy fraction of
//     instances (it is a greedy EFT search, not an optimizer, but a
//     collapse below the floor means the choice branching broke);
//   - all Workers values must agree byte-for-byte (the portfolio
//     reduction is a total order, machines or not);
//   - every answer taken from the incremental core must pass the audit,
//     concurrent portfolio workers included.
func TestHeteroDifferentialVsExact(t *testing.T) {
	const seeds = 40
	solved, optimal := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		p := genHeteroProblem(seed)
		var workerRef *Result
		for oi, opts := range heteroOptions() {
			var r *Result
			var err error
			_, auditErr := Audit(func() { r, err = Run(p.Clone(), opts) })
			if auditErr != nil {
				t.Fatalf("seed %d opts %d: %v", seed, oi, auditErr)
			}
			if err != nil {
				continue
			}
			if rep := verify.CheckAssigned(p, r.Schedule, r.Assignment); !rep.OK() {
				t.Fatalf("seed %d opts %d: heuristic schedule invalid: %v", seed, oi, rep.Err())
			}
			if len(r.Assignment) != len(p.Tasks) {
				t.Fatalf("seed %d opts %d: assignment has %d entries for %d tasks",
					seed, oi, len(r.Assignment), len(p.Tasks))
			}
			if opts.Restarts == 8 {
				if workerRef == nil {
					workerRef = r
				} else if !r.Schedule.Equal(workerRef.Schedule) ||
					!reflect.DeepEqual(r.Assignment, workerRef.Assignment) ||
					!reflect.DeepEqual(r.Profile.Segs, workerRef.Profile.Segs) {
					t.Fatalf("seed %d: Workers=%d diverged from the single-worker portfolio",
						seed, opts.Workers)
				}
			}
		}

		r, err := Run(p.Clone(), Options{})
		if err != nil {
			continue
		}
		sol, err := exact.Solve(p.Clone(), exact.MinFinish, exact.Config{})
		if err != nil {
			t.Fatalf("seed %d: exact solver failed on a heuristically schedulable problem: %v", seed, err)
		}
		if !sol.Optimal {
			continue
		}
		solved++
		if rep := verify.CheckAssigned(p, sol.Schedule, sol.Assignment); !rep.OK() {
			t.Fatalf("seed %d: exact optimum invalid: %v", seed, rep.Err())
		}
		if r.Finish() < sol.Finish {
			t.Fatalf("seed %d: heuristic finish %d beats proven optimum %d", seed, r.Finish(), sol.Finish)
		}
		if r.Finish() == sol.Finish {
			optimal++
		}
	}
	if solved < seeds/2 {
		t.Fatalf("only %d/%d instances fully cross-checked; generator or budgets drifted", solved, seeds)
	}
	if optimal < solved/3 {
		t.Fatalf("heuristic matched the optimum on only %d/%d solved instances", optimal, solved)
	}
}

// TestHeteroBothPaths audits the incremental core over the
// heterogeneous corpus: it must be bit-exact in the presence of
// assignment moves and effective task views too.
func TestHeteroBothPaths(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := genHeteroProblem(seed)
		for oi, opts := range diffOptions() {
			assertAudited(t, fmt.Sprintf("hetero seed %d opts %d", seed, oi), p, opts)
		}
	}
}

// TestHeteroSpecRoundTrip drives the heterogeneous dimension through
// the spec front-end: machine/level/pin directives parse, format, and
// re-parse to the same problem, and the parsed problem schedules.
func TestHeteroSpecRoundTrip(t *testing.T) {
	const src = `
problem hetero-pair
pmax 20
pmin 4

machine fast 2 1.5
machine slow 1 1

task a cpu 4 6
task b cpu 3 5
task c dsp 6 4
level a 1 6
level a 1.5 3.5
pin c slow

precede a b
`
	p, err := spec.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Heterogeneous() || len(p.Machines) != 2 || len(p.Tasks[0].Levels) != 2 || p.Tasks[2].Machine != "slow" {
		t.Fatalf("parse mismatch: %+v", p)
	}
	q, err := spec.ParseString(spec.Format(p))
	if err != nil {
		t.Fatalf("formatted spec does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip diverged:\n first  %+v\n second %+v", p, q)
	}
	r, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := verify.CheckAssigned(p, r.Schedule, r.Assignment); !rep.OK() {
		t.Fatal(rep.Err())
	}
}

// TestEffectiveProblemReschedulesToItself pins the resolved view: each
// task is pinned to its chosen machine with its one chosen level, the
// machines are unit-rated, and scheduling the view again reproduces
// its delays and powers instead of scaling them a second time. A
// degenerate result returns the caller's problem itself.
func TestEffectiveProblemReschedulesToItself(t *testing.T) {
	hetero9, err := spec.ParseFile(filepath.Join("..", "..", "testdata", "hetero9.spec"))
	if err != nil {
		t.Fatal(err)
	}
	probs := []*model.Problem{hetero9}
	for seed := int64(0); seed < 25; seed++ {
		probs = append(probs, genHeteroProblem(seed))
	}
	for _, p := range probs {
		r, err := Run(p, Options{})
		if err != nil {
			continue
		}
		v := r.EffectiveProblem()
		for _, m := range v.Machines {
			if m.Speed != 1 || m.PowerScale != 1 {
				t.Fatalf("%s: view machine %+v is not unit-rated", p.Name, m)
			}
		}
		for i, vt := range v.Tasks {
			if len(vt.Levels) != 0 || vt.Machine != p.Machines[r.Assignment[i].Machine].Name {
				t.Fatalf("%s: view task %+v is not resolved to choice %+v", p.Name, vt, r.Assignment[i])
			}
		}
		r2, err := Run(v, Options{})
		if err != nil {
			t.Fatalf("%s: view does not schedule: %v", p.Name, err)
		}
		for i, vt := range v.Tasks {
			if got := r2.Tasks[i]; got.Delay != vt.Delay || got.Power != vt.Power {
				t.Fatalf("%s: task %s rescheduled as %d s/%g W, view says %d s/%g W",
					p.Name, vt.Name, got.Delay, got.Power, vt.Delay, vt.Power)
			}
		}
	}
	p, err := spec.ParseFile(filepath.Join("..", "..", "testdata", "example9.spec"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.EffectiveProblem() != p {
		t.Fatal("degenerate EffectiveProblem is not the caller's problem")
	}
}
