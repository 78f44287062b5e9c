// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the heuristic choices and scaling runs
// on synthetic constraint graphs. Each benchmark reports the headline
// quantities of its artifact via b.ReportMetric (tau_s, cost_J,
// util_pct), so `go test -bench . -benchmem` reproduces the paper's
// rows alongside the runtime costs; the cmd/rover and cmd/mission tools
// print the full tables.
package impacct_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/mission"
	"repro/internal/paperex"
	"repro/internal/rover"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/service"
)

func reportResult(b *testing.B, r *impacct.Result) {
	b.Helper()
	b.ReportMetric(float64(r.Finish()), "tau_s")
	b.ReportMetric(r.EnergyCost(), "cost_J")
	b.ReportMetric(100*r.Utilization(), "util_pct")
}

// BenchmarkFig2TimingSchedule builds the time-valid schedule of Fig. 2
// for the nine-task example: timing constraints only, power spikes
// still present.
func BenchmarkFig2TimingSchedule(b *testing.B) {
	var r *impacct.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = impacct.Timing(paperex.Nine(), impacct.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, r)
	b.ReportMetric(float64(len(r.Profile.Spikes(paperex.Pmax))), "spikes")
}

// BenchmarkFig5MaxPower removes the spike with the max-power scheduler
// (Fig. 5): a valid schedule.
func BenchmarkFig5MaxPower(b *testing.B) {
	var r *impacct.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = impacct.MaxPower(paperex.Nine(), impacct.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, r)
}

// BenchmarkFig7MinPower improves utilization with the min-power
// scheduler (Fig. 7): the complete pipeline.
func BenchmarkFig7MinPower(b *testing.B) {
	var r *impacct.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = impacct.Run(paperex.Nine(), impacct.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, r)
	b.ReportMetric(r.Peak(), "needs_pmax_W")
	b.ReportMetric(r.Profile.Floor(), "fullutil_pmin_W")
}

// BenchmarkFig8RoverGraph constructs and compiles the rover's
// constraint graph (Fig. 8).
func BenchmarkFig8RoverGraph(b *testing.B) {
	var comp *schedule.Compiled
	for i := 0; i < b.N; i++ {
		p := rover.BuildIteration(rover.Typical, rover.Cold)
		var err error
		comp, err = schedule.Compile(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(comp.NumTasks()), "tasks")
	b.ReportMetric(float64(comp.Base.NumEdges()), "edges")
}

// benchRoverCase is shared by the Fig. 9-11 benchmarks: the full
// pipeline on one rover iteration.
func benchRoverCase(b *testing.B, c rover.Case, kind rover.IterationKind) {
	var r *impacct.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = sched.Run(rover.BuildIteration(c, kind), sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, r)
}

// BenchmarkFig9BestCase schedules the unrolled best case of Fig. 9
// (cold iteration with inserted pre-heat tasks, 24.9 W budget).
func BenchmarkFig9BestCase(b *testing.B) { benchRoverCase(b, rover.Best, rover.ColdPreheat) }

// BenchmarkFig9BestCaseSteady schedules the repeating warm iteration
// whose cost Table 3 reports as the best case's "2nd" figure.
func BenchmarkFig9BestCaseSteady(b *testing.B) { benchRoverCase(b, rover.Best, rover.Warm) }

// BenchmarkFig10TypicalCase schedules the typical case of Fig. 10
// (22 W budget; some heating serialized, 60 s).
func BenchmarkFig10TypicalCase(b *testing.B) { benchRoverCase(b, rover.Typical, rover.Cold) }

// BenchmarkFig11WorstCase schedules the worst case of Fig. 11 (19 W
// budget; fully serialized, 75 s, identical to the JPL baseline).
func BenchmarkFig11WorstCase(b *testing.B) { benchRoverCase(b, rover.Worst, rover.Cold) }

// BenchmarkTable3 evaluates all six Table 3 cells: the JPL baseline and
// the power-aware schedule in each environmental case.
func BenchmarkTable3(b *testing.B) {
	for _, c := range rover.Cases {
		c := c
		b.Run("jpl-"+c.String(), func(b *testing.B) {
			var m rover.Metrics
			for i := 0; i < b.N; i++ {
				p, s := rover.JPL(c)
				m = rover.Measure(p, s)
			}
			b.ReportMetric(float64(m.Finish), "tau_s")
			b.ReportMetric(m.EnergyCost, "cost_J")
			b.ReportMetric(100*m.Utilization, "util_pct")
		})
		b.Run("power-aware-"+c.String(), func(b *testing.B) {
			benchRoverCase(b, c, rover.Cold)
		})
	}
}

// BenchmarkTable4 runs the complete 48-step mission scenario for both
// policies and reports the paper's improvement percentages.
func BenchmarkTable4(b *testing.B) {
	var jpl, pa mission.Report
	for i := 0; i < b.N; i++ {
		var err error
		jpl, err = mission.Simulate(mission.Config{
			TargetSteps: 48, Phases: mission.PaperScenario(), Policy: &mission.JPLPolicy{},
		})
		if err != nil {
			b.Fatal(err)
		}
		pa, err = mission.Simulate(mission.Config{
			TargetSteps: 48, Phases: mission.PaperScenario(), Policy: &mission.PowerAwarePolicy{},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jpl.TotalSeconds), "jpl_s")
	b.ReportMetric(float64(pa.TotalSeconds), "pa_s")
	b.ReportMetric(jpl.TotalCost, "jpl_J")
	b.ReportMetric(pa.TotalCost, "pa_J")
	b.ReportMetric(100*mission.TimeImprovement(jpl, pa), "time_imp_pct")
	b.ReportMetric(100*mission.EnergyImprovement(jpl, pa), "energy_imp_pct")
}

// BenchmarkAblationScanOrder isolates the min-power gap-visit order
// (paper section 5.3 discusses scanning "in various orders").
func BenchmarkAblationScanOrder(b *testing.B) {
	orders := map[string][]impacct.ScanOrder{
		"forward": {impacct.ScanForward},
		"reverse": {impacct.ScanReverse},
		"random":  {impacct.ScanRandom},
		"all":     {impacct.ScanForward, impacct.ScanReverse, impacct.ScanRandom},
	}
	for _, name := range []string{"forward", "reverse", "random", "all"} {
		b.Run(name, func(b *testing.B) {
			var r *impacct.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = impacct.Run(paperex.Nine(), impacct.Options{ScanOrders: orders[name]})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportResult(b, r)
		})
	}
}

// BenchmarkAblationSlotChoice isolates the slot heuristic used when
// moving a task into a power gap.
func BenchmarkAblationSlotChoice(b *testing.B) {
	slots := map[string][]impacct.SlotChoice{
		"start-at-gap":      {impacct.SlotStartAtGap},
		"finish-at-gap-end": {impacct.SlotFinishAtGapEnd},
		"random":            {impacct.SlotRandom},
		"all":               {impacct.SlotStartAtGap, impacct.SlotFinishAtGapEnd, impacct.SlotRandom},
	}
	for _, name := range []string{"start-at-gap", "finish-at-gap-end", "random", "all"} {
		b.Run(name, func(b *testing.B) {
			var r *impacct.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = impacct.Run(paperex.Nine(), impacct.Options{SlotChoices: slots[name]})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportResult(b, r)
		})
	}
}

// BenchmarkAblationLocks toggles the lock-the-remaining-tasks heuristic
// of the max-power scheduler, which the paper argues reduces the
// scheduler's computation.
func BenchmarkAblationLocks(b *testing.B) {
	for _, disabled := range []bool{false, true} {
		name := "locks-on"
		if disabled {
			name = "locks-off"
		}
		b.Run(name, func(b *testing.B) {
			var r *impacct.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = sched.Run(rover.BuildIteration(rover.Worst, rover.Cold),
					sched.Options{DisableLocks: disabled})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportResult(b, r)
			b.ReportMetric(float64(r.Stats.Backtracks), "backtracks")
		})
	}
}

// BenchmarkScaling measures pipeline runtime against problem size on
// random layered constraint graphs.
func BenchmarkScaling(b *testing.B) {
	for _, n := range []int{10, 25, 50, 100, 200} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			p := analysis.Generate(analysis.GenConfig{Tasks: n, Seed: 42})
			b.ResetTimer()
			var r *impacct.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = impacct.Run(p.Clone(), impacct.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportResult(b, r)
		})
	}
}

// BenchmarkServiceCached measures a /schedule-shaped request served
// from the scheduling service's content-addressed cache on the rover
// problem. Compare against BenchmarkServiceUncached (the same request
// recomputed from scratch): the cached path is a hash plus a map
// lookup, several orders of magnitude faster.
func BenchmarkServiceCached(b *testing.B) {
	svc := service.New(service.Config{})
	p := rover.BuildIteration(rover.Typical, rover.Cold)
	r, err := svc.Schedule(p, sched.Options{}, service.StageMinPower)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err = svc.Schedule(p, sched.Options{}, service.StageMinPower)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, r)
	b.ReportMetric(float64(svc.Stats().Hits), "cache_hits")
}

// BenchmarkServiceUncached is the baseline for BenchmarkServiceCached:
// every iteration runs the full pipeline on the same rover problem.
func BenchmarkServiceUncached(b *testing.B) {
	p := rover.BuildIteration(rover.Typical, rover.Cold)
	var r *impacct.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = sched.Run(p, sched.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportResult(b, r)
}

// BenchmarkProfileBuild measures the power-profile sweep on a large
// schedule, the inner loop of every heuristic evaluation.
func BenchmarkProfileBuild(b *testing.B) {
	p := analysis.Generate(analysis.GenConfig{Tasks: 200, Seed: 7})
	r, err := impacct.Timing(p, impacct.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := impacct.BuildProfile(p.Tasks, r.Schedule, p.BasePower)
		if prof.Duration() == 0 {
			b.Fatal("empty profile")
		}
	}
}
