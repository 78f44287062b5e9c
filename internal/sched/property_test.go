package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/schedule"
)

// genProblem builds a random layered problem. It mirrors the generator
// in internal/analysis, which cannot be imported here without creating
// an import cycle (analysis depends on sched).
func genProblem(seed int64) *model.Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(14)
	layers := 2 + n/5
	p := &model.Problem{Name: fmt.Sprintf("prop-%d", seed)}
	layerOf := make([]int, n)
	for i := 0; i < n; i++ {
		layerOf[i] = i * layers / n
		p.AddTask(model.Task{
			Name:     fmt.Sprintf("t%02d", i),
			Resource: fmt.Sprintf("R%d", rng.Intn(3)),
			Delay:    1 + rng.Intn(6),
			Power:    1 + rng.Float64()*9,
		})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if layerOf[j] != layerOf[i]+1 || rng.Float64() >= 0.3 {
				continue
			}
			min := p.Tasks[i].Delay
			if rng.Float64() < 0.2 {
				p.Window(p.Tasks[i].Name, p.Tasks[j].Name, min, min+200)
			} else {
				p.MinSep(p.Tasks[i].Name, p.Tasks[j].Name, min)
			}
		}
	}
	first, second := 0.0, 0.0
	for _, t := range p.Tasks {
		if t.Power > first {
			first, second = t.Power, first
		} else if t.Power > second {
			second = t.Power
		}
	}
	p.Pmax = (first + second) * 1.2
	p.Pmin = p.Pmax / 2
	return p
}

// TestQuickPipelineValidity: on random problems the full pipeline
// always produces schedules that are time-valid (all constraint edges,
// resource serialization) and power-valid (no spikes).
func TestQuickPipelineValidity(t *testing.T) {
	f := func(seed int64) bool {
		p := genProblem(seed)
		r, err := MinPower(p, Options{})
		if err != nil {
			return false
		}
		if err := schedule.CheckTimeValid(r.Compiled.Base, r.Compiled, r.Schedule); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !r.Profile.Valid(p.Pmax) {
			t.Logf("seed %d: spikes %v", seed, r.Profile.Spikes(p.Pmax))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinPowerNeverHurts: the min-power stage never lowers
// utilization, never raises energy cost, and never extends the finish
// time relative to the max-power stage.
func TestQuickMinPowerNeverHurts(t *testing.T) {
	f := func(seed int64) bool {
		p := genProblem(seed)
		rm, err := MaxPower(p.Clone(), Options{})
		if err != nil {
			return false
		}
		rf, err := MinPower(p.Clone(), Options{})
		if err != nil {
			return false
		}
		if rf.Finish() > rm.Finish() {
			t.Logf("seed %d: finish %d -> %d", seed, rm.Finish(), rf.Finish())
			return false
		}
		if rf.Utilization()+utilEps < rm.Utilization() {
			t.Logf("seed %d: util %.4f -> %.4f", seed, rm.Utilization(), rf.Utilization())
			return false
		}
		if rf.EnergyCost() > rm.EnergyCost()+1e-9 {
			t.Logf("seed %d: cost %.2f -> %.2f", seed, rm.EnergyCost(), rf.EnergyCost())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickTimingIsASAPLowerBound: the power stages only ever delay
// tasks, so with identical options (hence the identical serialization
// order) every pipeline start time is at or after its timing-only
// (ASAP) value, and the finish time never shrinks.
func TestQuickTimingIsASAPLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		p := genProblem(seed)
		rt, err := Timing(p.Clone(), Options{})
		if err != nil {
			return false
		}
		rf, err := MinPower(p.Clone(), Options{})
		if err != nil {
			return false
		}
		for v := range rf.Schedule.Start {
			if rf.Schedule.Start[v] < rt.Schedule.Start[v] {
				t.Logf("seed %d: task %d moved earlier (%d < %d)",
					seed, v, rf.Schedule.Start[v], rt.Schedule.Start[v])
				return false
			}
		}
		return rf.Finish() >= rt.Finish()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickFinalGraphPinsSchedule: the pipeline's final graph encodes
// the returned schedule exactly — the longest-path solution of the
// mutated constraint graph equals the reported start times.
func TestQuickFinalGraphPinsSchedule(t *testing.T) {
	f := func(seed int64) bool {
		p := genProblem(seed)
		rf, g, err := finalGraph(p, Options{})
		if err != nil {
			return false
		}
		dist, ok := g.LongestFrom(rf.Compiled.Anchor)
		if !ok {
			return false
		}
		for v := range rf.Schedule.Start {
			if dist[v] != rf.Schedule.Start[v] {
				t.Logf("seed %d: task %d graph says %d, schedule says %d",
					seed, v, dist[v], rf.Schedule.Start[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeterminism: the same problem and seed produce the same
// schedule; the heuristics contain randomness but it is fully seeded.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		p := genProblem(seed)
		a, err := MinPower(p.Clone(), Options{Seed: 11})
		if err != nil {
			return false
		}
		b, err := MinPower(p.Clone(), Options{Seed: 11})
		if err != nil {
			return false
		}
		return a.Schedule.Equal(b.Schedule)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
