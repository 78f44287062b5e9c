// Package benchkit generates deterministic synthetic scheduling
// problems at controlled sizes for benchmarking the scheduler core.
// The instances are layered task DAGs with shared resources and a
// power budget tight enough that every pipeline stage does real work:
// the timing stage serializes resource conflicts, the max-power stage
// removes genuine spikes, and the min-power stage finds genuine gaps.
// Instances are feasible by construction for the default scheduler
// budgets.
package benchkit

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedule"
)

// Sizes is the canonical instance ladder the scheduler benchmarks
// run: small enough to iterate quickly, large enough that
// asymptotics show. The 5000- and 10000-task rungs are the scale tier —
// seconds, not milliseconds, per pipeline run — exercised by the
// nightly benchmarks and gated behind BENCH_FULL_LADDER in the
// schedulability test so the tier-1 suite stays fast.
var Sizes = []int{10, 50, 200, 1000, 5000, 10000}

// ScaleTier is the size above which an instance belongs to the scale
// tier: its schedulability checks run nightly only.
const ScaleTier = 1000

// Generate builds the deterministic synthetic problem with n tasks for
// the given seed. The same (n, seed) always yields the same problem.
func Generate(n int, seed int64) *model.Problem {
	rng := rand.New(rand.NewSource(seed ^ int64(n)*0x9e3779b9))
	p := &model.Problem{Name: fmt.Sprintf("bench-%d-%d", n, seed)}

	// Layered DAG: wide layers so several tasks are concurrent, with
	// enough resources that the serialization chains stay short and the
	// timing search does not backtrack pathologically.
	layers := 2 + n/6
	resources := 3 + n/8
	layerOf := make([]int, n)
	for i := 0; i < n; i++ {
		layerOf[i] = i * layers / n
		p.AddTask(model.Task{
			Name:     fmt.Sprintf("t%04d", i),
			Resource: fmt.Sprintf("R%d", rng.Intn(resources)),
			Delay:    2 + rng.Intn(8),
			Power:    1 + rng.Float64()*9,
		})
	}
	// Sparse precedence between consecutive layers, occasionally with a
	// max-separation window. Window width scales with the horizon
	// (roughly 3 time units per task) so that resource serialization
	// and spike-fixing delays cannot easily make the instance
	// infeasible or send the timing search into backtrack thrash.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if layerOf[j] != layerOf[i]+1 || rng.Float64() >= 3.0/float64(1+n/layers) {
				continue
			}
			min := p.Tasks[i].Delay
			if rng.Float64() < 0.15 {
				p.Window(p.Tasks[i].Name, p.Tasks[j].Name, min, min+400+model.Time(3*n))
			} else {
				p.MinSep(p.Tasks[i].Name, p.Tasks[j].Name, min)
			}
		}
	}

	// Power envelope: budget ~55% of the precedence-only ASAP peak, so
	// the time-valid schedule is guaranteed to spike (the max-power
	// stage does real work) while plenty of sub-budget room remains to
	// resolve the spikes by delaying. Pmin at half the budget leaves
	// gaps worth filling for the min-power stage.
	p.BasePower = 0.5
	p.Pmax = p.BasePower + 0.55*(asapPeak(p)-p.BasePower)
	p.Pmin = p.Pmax / 2
	return p
}

// GenerateMachines builds the heterogeneous variant of the ladder
// instance: the Generate(n, seed) problem plus m machines with spread
// speeds (faster machines draw proportionally more power) and a
// two-level DVS ladder on every third task. The machine dimension
// multiplies the backtracker's branching factor by m, so this is the
// instance that prices the choice loop, the machine serialization
// edges, and the EFT choice ordering.
func GenerateMachines(n, m int, seed int64) *model.Problem {
	p := Generate(n, seed)
	p.Name = fmt.Sprintf("bench-%d-m%d-%d", n, m, seed)
	rng := rand.New(rand.NewSource(seed ^ int64(m)*0x85ebca6b))
	for j := 0; j < m; j++ {
		p.Machines = append(p.Machines, model.Machine{
			Name:       fmt.Sprintf("m%d", j),
			Speed:      1 + 0.25*float64(j),
			PowerScale: 1 + 0.1*float64(j),
		})
	}
	for i := range p.Tasks {
		if i%3 != 0 {
			continue
		}
		t := &p.Tasks[i]
		t.Levels = []model.DVSLevel{
			{Mult: 1, Power: t.Power},
			{Mult: 1.5, Power: t.Power * (0.5 + 0.3*rng.Float64())},
		}
	}
	return p
}

// asapPeak returns the peak power of the schedule that starts every
// task at its earliest precedence-feasible time, ignoring resource
// serialization and power limits. Tasks are index-topological by
// construction (constraints only point forward), so one forward pass
// suffices.
func asapPeak(p *model.Problem) float64 {
	idx := p.TaskIndex()
	start := make([]model.Time, len(p.Tasks))
	for _, con := range p.Constraints {
		u, v := idx[con.From], idx[con.To]
		if s := start[u] + con.Min; s > start[v] {
			start[v] = s
		}
	}
	return power.Build(p.Tasks, schedule.Schedule{Start: start}, p.BasePower).Peak()
}

// Options returns the scheduler options the benchmarks run under: a
// single deterministic heuristic combination (so the measurement is
// dominated by the core loops, not by how many combos are tried) with
// compaction enabled, and effort bounds scaled to the instance size.
func Options(n int) sched.Options {
	return sched.Options{
		Seed:           1,
		MaxScans:       3,
		ScanOrders:     []sched.ScanOrder{sched.ScanForward},
		SlotChoices:    []sched.SlotChoice{sched.SlotStartAtGap},
		MaxBacktracks:  50000 + 100*n,
		MaxSpikeRounds: 50000 + 100*n,
		Compact:        true,
	}
}
