// Extension benchmarks: heuristic quality against the exact reference
// solver, the corner-analysis derivation of Table 3, and the editor and
// execution layers.
package impacct_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/corners"
	"repro/internal/exact"
	"repro/internal/paperex"
	"repro/internal/power"
	"repro/internal/rover"
	"repro/internal/sched"
)

// BenchmarkHeuristicVsExact compares the pipeline's makespan against
// the provably optimal one on small random instances, reporting the
// mean optimality gap (0 = the heuristic matched the optimum on every
// instance).
func BenchmarkHeuristicVsExact(b *testing.B) {
	const instances = 10
	var gap, runs float64
	for i := 0; i < b.N; i++ {
		gap, runs = 0, 0
		for seed := int64(0); seed < instances; seed++ {
			p := analysis.Generate(analysis.GenConfig{Tasks: 5, MaxDelay: 4, Seed: seed})
			h, err := sched.Run(p.Clone(), sched.Options{})
			if err != nil {
				b.Fatal(err)
			}
			opt, err := exact.Solve(p.Clone(), exact.MinFinish, exact.Config{Horizon: h.Finish() + 2})
			if err != nil || !opt.Optimal {
				continue
			}
			gap += float64(h.Finish()-opt.Finish) / float64(opt.Finish)
			runs++
		}
	}
	if runs > 0 {
		b.ReportMetric(100*gap/runs, "mean_gap_pct")
		b.ReportMetric(runs, "instances")
	}
}

// BenchmarkCornerAnalysis re-derives Table 3 from the corner framework:
// the conservative (max-corner) schedule against per-corner schedules.
func BenchmarkCornerAnalysis(b *testing.B) {
	prob, m := corners.RoverModel(rover.Cold)
	b.Run("conservative", func(b *testing.B) {
		var rep corners.Report
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = corners.Conservative(prob, m, sched.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, cm := range rep.PerCorner {
			b.ReportMetric(float64(cm.Metrics.Finish), "tau_"+cm.Corner.String()+"_s")
		}
	})
	b.Run("per-corner", func(b *testing.B) {
		var res []corners.PerCornerResult
		for i := 0; i < b.N; i++ {
			var err error
			res, err = corners.PerCorner(prob, m, sched.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range res {
			b.ReportMetric(float64(r.Metrics.Finish), "tau_"+r.Corner.String()+"_s")
		}
	})
}

// BenchmarkVerify measures the independent oracle on scheduler output.
func BenchmarkVerify(b *testing.B) {
	p := rover.BuildIteration(rover.Typical, rover.Cold)
	r, err := sched.Run(p, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := impacct.Verify(p, r.Schedule); !rep.OK() {
			b.Fatal(rep.Err())
		}
	}
}

// BenchmarkExecuteMission replays one rover iteration against the
// mission solar staircase at each phase offset.
func BenchmarkExecuteMission(b *testing.B) {
	sol := power.NewSolar(14.9)
	sol.AddPhase(600, 12)
	sol.AddPhase(1200, 9)
	sup := power.Supply{Solar: sol}
	for _, offset := range []int{0, 600, 1200} {
		b.Run(fmt.Sprintf("offset=%d", offset), func(b *testing.B) {
			c := rover.Worst
			switch offset {
			case 0:
				c = rover.Best
			case 600:
				c = rover.Typical
			}
			p := rover.BuildIteration(c, rover.Cold)
			r, err := sched.Run(p, sched.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var rep impacct.ExecReport
			for i := 0; i < b.N; i++ {
				bat := &power.Battery{MaxPower: 10}
				rep, err = impacct.Execute(p, r.Schedule, sup, bat, offset)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.BatteryUsed, "battery_J")
			b.ReportMetric(rep.SolarWasted, "wasted_J")
		})
	}
}

// BenchmarkListBaseline compares a conventional power-constrained list
// scheduler against the paper's pipeline on the nine-task example,
// where gap filling matters: the list scheduler is fast but blind to
// Pmin.
func BenchmarkListBaseline(b *testing.B) {
	p := paperex.Nine()
	b.Run("list-scheduler", func(b *testing.B) {
		var cost, util float64
		for i := 0; i < b.N; i++ {
			s, err := baseline.ListSchedule(p.Clone(), 0)
			if err != nil {
				b.Fatal(err)
			}
			_, cost, util = baseline.Metrics(p, s)
		}
		b.ReportMetric(cost, "cost_J")
		b.ReportMetric(100*util, "util_pct")
	})
	b.Run("pipeline", func(b *testing.B) {
		var r *impacct.Result
		for i := 0; i < b.N; i++ {
			var err error
			r, err = impacct.Run(p.Clone(), impacct.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(r.EnergyCost(), "cost_J")
		b.ReportMetric(100*r.Utilization(), "util_pct")
	})
}

// BenchmarkAblationRestarts measures multi-restart scheduling (the
// extension that explores several serialization orders) against the
// single greedy pass, reporting the mean makespan gap to the exact
// optimum on small random instances.
func BenchmarkAblationRestarts(b *testing.B) {
	for _, restarts := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("restarts=%d", restarts), func(b *testing.B) {
			var gap, runs float64
			for i := 0; i < b.N; i++ {
				gap, runs = 0, 0
				for seed := int64(0); seed < 10; seed++ {
					p := analysis.Generate(analysis.GenConfig{Tasks: 5, MaxDelay: 4, Seed: seed})
					h, err := sched.Run(p.Clone(), sched.Options{Restarts: restarts})
					if err != nil {
						continue
					}
					opt, err := exact.Solve(p.Clone(), exact.MinFinish, exact.Config{Horizon: h.Finish() + 2})
					if err != nil || !opt.Optimal {
						continue
					}
					gap += float64(h.Finish()-opt.Finish) / float64(opt.Finish)
					runs++
				}
			}
			if runs > 0 {
				b.ReportMetric(100*gap/runs, "mean_gap_pct")
			}
		})
	}
}

// BenchmarkEditorReschedule measures the lock-and-reschedule loop of an
// interactive session.
func BenchmarkEditorReschedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := impacct.NewSession(rover.BuildIteration(rover.Typical, rover.Cold), impacct.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Lock("hz1"); err != nil {
			b.Fatal(err)
		}
		if err := s.Reschedule(); err != nil {
			b.Fatal(err)
		}
	}
}
