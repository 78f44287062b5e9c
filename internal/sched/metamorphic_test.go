package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/rover"
)

// scalePowers returns a copy of p with every power quantity — task and
// DVS level powers, the base load, Pmax and Pmin — multiplied by 2^k.
// Scaling by a power of two is exact in float64 (away from overflow and
// subnormals), so every sum the scheduler forms scales exactly and
// every comparison it makes keeps its outcome.
func scalePowers(p *model.Problem, k int) *model.Problem {
	q := p.Clone()
	for i := range q.Tasks {
		q.Tasks[i].Power = math.Ldexp(q.Tasks[i].Power, k)
		for j := range q.Tasks[i].Levels {
			q.Tasks[i].Levels[j].Power = math.Ldexp(q.Tasks[i].Levels[j].Power, k)
		}
	}
	q.BasePower = math.Ldexp(q.BasePower, k)
	q.Pmax = math.Ldexp(q.Pmax, k)
	q.Pmin = math.Ldexp(q.Pmin, k)
	return q
}

// TestPowerScalingMetamorphic is an oracle-free guard on the whole
// pipeline: scaling every power by 2^k must leave the schedule, the
// machine/level assignment and the work counters unchanged and scale
// the profile's powers exactly, over the generated, spec, rover and
// heterogeneous corpora.
func TestPowerScalingMetamorphic(t *testing.T) {
	corpus := map[string]*model.Problem{}
	for seed := int64(0); seed < 35; seed++ {
		corpus[fmt.Sprintf("gen %d", seed)] = genProblem(seed)
	}
	for i, p := range specCorpus(t) {
		corpus[fmt.Sprintf("spec %d", i)] = p
	}
	for _, c := range []rover.Case{rover.Best, rover.Typical, rover.Worst} {
		for _, k := range []rover.IterationKind{rover.Cold, rover.ColdPreheat, rover.Warm} {
			corpus[fmt.Sprintf("rover %v/%v", c, k)] = rover.BuildIteration(c, k)
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		corpus[fmt.Sprintf("hetero %d", seed)] = genHeteroProblem(seed)
	}
	var spikeRounds, moves int
	for name, p := range corpus {
		for oi, opts := range diffOptions() {
			want, wantErr := MinPower(p.Clone(), opts)
			for _, k := range []int{-3, 5} {
				label := fmt.Sprintf("%s opts %d scale 2^%d", name, oi, k)
				got, err := MinPower(scalePowers(p, k), opts)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: error divergence: scaled=%v unscaled=%v", label, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !got.Schedule.Equal(want.Schedule) || !reflect.DeepEqual(got.Assignment, want.Assignment) {
					t.Fatalf("%s: schedule diverged\n scaled   %v %v\n unscaled %v %v",
						label, got.Schedule.Start, got.Assignment, want.Schedule.Start, want.Assignment)
				}
				spikeRounds += got.Stats.SpikeRounds
				moves += got.Stats.Moves
				if got.Stats != want.Stats {
					t.Fatalf("%s: stats diverged: %+v vs %+v", label, got.Stats, want.Stats)
				}
				if len(got.Profile.Segs) != len(want.Profile.Segs) {
					t.Fatalf("%s: %d profile segments, unscaled %d", label, len(got.Profile.Segs), len(want.Profile.Segs))
				}
				for i, s := range want.Profile.Segs {
					g := got.Profile.Segs[i]
					if g.T0 != s.T0 || g.T1 != s.T1 || g.P != math.Ldexp(s.P, k) {
						t.Fatalf("%s: segment %d is %+v, want %+v scaled by 2^%d", label, i, g, s, k)
					}
				}
			}
		}
	}
	if spikeRounds == 0 || moves == 0 {
		t.Fatalf("vacuous corpus: %d spike rounds, %d gap-fill moves", spikeRounds, moves)
	}
}
