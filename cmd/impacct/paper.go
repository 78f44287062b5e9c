package main

import (
	"flag"
	"fmt"
	"math"

	"repro/internal/gantt"
	"repro/internal/mission"
	"repro/internal/model"
	"repro/internal/paperex"
	"repro/internal/power"
	"repro/internal/rover"
	"repro/internal/sched"
)

// table3 holds the schedules behind the paper's Table 3: one iteration
// (two steps) per environmental case, plus the best case's pre-heating
// first iteration and the warm iteration that follows it.
type table3 struct {
	cases       []caseRun
	first, warm *sched.Result
}

// caseRun is one case's hand-crafted JPL schedule and its cold
// power-aware schedule, each measured over one iteration.
type caseRun struct {
	c         rover.Case
	jpl, cold rover.Metrics
	prob      *model.Problem // the cold iteration
	run       *sched.Result  // its power-aware schedule
}

func computeTable3(opts sched.Options) (table3, error) {
	var t table3
	for _, c := range rover.Cases {
		pJ, sJ := rover.JPL(c)
		prob := rover.BuildIteration(c, rover.Cold)
		r, err := sched.Run(prob, opts)
		if err != nil {
			return t, err
		}
		t.cases = append(t.cases, caseRun{c: c, jpl: rover.Measure(pJ, sJ), cold: rover.Measure(prob, r.Schedule), prob: prob, run: r})
	}
	var err error
	if t.first, err = sched.Run(rover.BuildIteration(rover.Best, rover.ColdPreheat), opts); err != nil {
		return t, err
	}
	t.warm, err = sched.Run(rover.BuildIteration(rover.Best, rover.Warm), opts)
	return t, err
}

// table4 flies the mission under the fixed JPL schedule and under the
// power-aware policy: the two halves of the paper's Table 4. bat, when
// non-nil, is the battery each flight starts with.
func table4(steps int, phases []mission.Phase, bat *power.Battery, preheatAll bool, opts sched.Options) (jpl, pa mission.Report, err error) {
	fly := func(p mission.Policy) (mission.Report, error) {
		cfg := mission.Config{TargetSteps: steps, Phases: phases, Policy: p}
		if bat != nil {
			fresh := *bat
			cfg.Battery = &fresh
		}
		return mission.Simulate(cfg)
	}
	if jpl, err = fly(&mission.JPLPolicy{}); err != nil {
		return jpl, pa, err
	}
	policy := &mission.PowerAwarePolicy{Opts: opts}
	if preheatAll {
		policy.Preheat = map[rover.Case]bool{rover.Best: true, rover.Typical: true, rover.Worst: true}
	}
	pa, err = fly(policy)
	return jpl, pa, err
}

// figures measures the schedules of Figs. 2, 5, 7 and 9-11 as
// (figure, measured) rows; the per-case rows are Table 3's cold
// power-aware schedules.
func figures(t table3, opts sched.Options) ([][2]string, error) {
	// The nine-task example through each pipeline stage: time-valid,
	// valid, and improved.
	var nine [3]*sched.Result
	for i, stage := range []func(*model.Problem, sched.Options) (*sched.Result, error){sched.Timing, sched.MaxPower, sched.Run} {
		var err error
		if nine[i], err = stage(paperex.Nine(), opts); err != nil {
			return nil, err
		}
	}
	rt, rm, rf := nine[0], nine[1], nine[2]
	rows := [][2]string{
		{"Fig. 2 (time-valid)", fmt.Sprintf("tau=%d s, peak=%.1f W, %d spike(s)",
			rt.Finish(), rt.Peak(), len(rt.Profile.Spikes(paperex.Nine().Pmax)))},
		{"Fig. 5 (valid)", fmt.Sprintf("tau=%d s, cost=%.1f J, util=%.1f%%",
			rm.Finish(), rm.EnergyCost(), 100*rm.Utilization())},
		{"Fig. 7 (improved)", fmt.Sprintf("tau=%d s, cost=%.1f J, util=%.1f%%, needs Pmax>=%.4g W",
			rf.Finish(), rf.EnergyCost(), 100*rf.Utilization(), rf.Peak())},
	}
	fig := map[rover.Case]string{rover.Best: "Fig. 9", rover.Typical: "Fig. 10", rover.Worst: "Fig. 11"}
	for _, cr := range t.cases {
		rows = append(rows, [2]string{fmt.Sprintf("%s (%s case)", fig[cr.c], cr.c),
			fmt.Sprintf("tau=%d s, cost=%.1f J, util=%.1f%%", cr.run.Finish(), cr.run.EnergyCost(), 100*cr.run.Utilization())})
	}
	un, err := sched.Run(rover.BuildUnrolled(rover.Best, 2, true), opts)
	if err != nil {
		return nil, err
	}
	return append(rows, [2]string{"Fig. 9 (two unrolled iterations)",
		fmt.Sprintf("tau=%d s, total cost=%.1f J", un.Finish(), un.EnergyCost())}), nil
}

func roverCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		showGantt = fs.Bool("gantt", false, "render the power-aware schedule of each case")
		preheat   = fs.Bool("preheat", true, "include the best-case pre-heat iterations (Table 3's 1st/2nd rows)")
		seed      = fs.Int64("seed", 0, "random seed for the heuristics")
	)
	return "", 0, func(_ []string, s stdio) error {
		t, err := computeTable3(sched.Options{Seed: *seed})
		if err != nil {
			return err
		}
		// The power-aware cost column widens to its longest entry (the
		// best case's "1st/2nd" pair), and each header cell spans its
		// column group, so every row puts its '|' under the header's.
		ms, costs, costW := make([]rover.Metrics, len(t.cases)), make([]string, len(t.cases)), 10
		for i, cr := range t.cases {
			ms[i], costs[i] = cr.cold, fmt.Sprintf("%.1f", cr.cold.EnergyCost)
			if cr.c == rover.Best && *preheat {
				ms[i] = rover.Measure(t.first.Compiled.Prob, t.first.Schedule)
				costs[i] = fmt.Sprintf("%.1f(1st) %.1f(2nd)", t.first.EnergyCost(), t.warm.EnergyCost())
			}
			costW = max(costW, len(costs[i]))
		}
		fmt.Fprintln(s.out, "Table 3: performance and energy cost of the schedules")
		fmt.Fprintf(s.out, "%-8s | %25s | %*s\n", "", "JPL", costW+15, "Power-aware")
		fmt.Fprintf(s.out, "%-8s | %10s %7s %6s | %*s %7s %6s\n",
			"Pmin (W)", "cost (J)", "util", "tau(s)", costW, "cost (J)", "util", "tau(s)")
		for i, cr := range t.cases {
			fmt.Fprintf(s.out, "%-8.4g | %10.1f %6.0f%% %6d | %*s %6.0f%% %6d\n",
				rover.Table2(cr.c).Solar,
				cr.jpl.EnergyCost, 100*cr.jpl.Utilization, cr.jpl.Finish,
				costW, costs[i], 100*ms[i].Utilization, ms[i].Finish)
		}
		if *showGantt {
			for _, cr := range t.cases {
				fmt.Fprintln(s.out)
				fmt.Fprint(s.out, gantt.New(cr.prob, cr.run.Schedule).ASCII(1))
			}
		}
		return nil
	}
}

func missionCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		steps      = fs.Int("steps", 48, "travel distance in 7 cm steps")
		seed       = fs.Int64("seed", 0, "random seed for the heuristics")
		preheatAll = fs.Bool("preheat-all", false, "extension: pre-heat unrolling in every case, not only the best case")
		capacity   = fs.Float64("battery", 0, "battery capacity in joules (0 = untracked)")
		scenario   = fs.String("scenario", "", "load the mission from a scenario file instead of the built-in Table 4 staircase")
	)
	return "", 0, func(_ []string, s stdio) error {
		if !(*capacity >= 0) || math.IsInf(*capacity, 1) {
			return exitError{2, fmt.Errorf("-battery must be a finite, non-negative capacity, got %g", *capacity)}
		}
		phases, n := mission.PaperScenario(), *steps
		var bat *power.Battery
		if *capacity != 0 {
			bat = &power.Battery{Capacity: *capacity, MaxPower: 10}
		}
		if *scenario != "" {
			sc, err := mission.ParseScenarioFile(*scenario)
			if err != nil {
				return err
			}
			phases, n = sc.Phases, sc.TargetSteps
			if sc.Battery != nil {
				bat = sc.Battery
			}
		}
		jpl, pa, err := table4(n, phases, bat, *preheatAll, sched.Options{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "Table 4: mission scenario, %d steps\n", n)
		fmt.Fprint(s.out, mission.FormatTable(jpl, pa))
		return nil
	}
}

// reportCmd emits every reproduced experiment as a markdown report of
// measured values, the generator behind EXPERIMENTS.md's measured
// columns.
func reportCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	seed := fs.Int64("seed", 0, "random seed for the heuristics")
	return "", 0, func(_ []string, s stdio) error {
		opts := sched.Options{Seed: *seed}
		t, err := computeTable3(opts)
		if err != nil {
			return err
		}
		jpl, pa, err := table4(48, mission.PaperScenario(), nil, false, opts)
		if err != nil {
			return err
		}
		figs, err := figures(t, opts)
		if err != nil {
			return err
		}

		fmt.Fprint(s.out, "# Measured results\n\n## Table 3 — one iteration per case\n\n")
		fmt.Fprintln(s.out, "| case | policy | cost (J) | utilization | tau (s) |")
		fmt.Fprintln(s.out, "|---|---|---|---|---|")
		for _, cr := range t.cases {
			fmt.Fprintf(s.out, "| %s | JPL | %.1f | %.1f%% | %d |\n", cr.c, cr.jpl.EnergyCost, 100*cr.jpl.Utilization, cr.jpl.Finish)
			fmt.Fprintf(s.out, "| %s | power-aware | %.1f | %.1f%% | %d |\n", cr.c, cr.cold.EnergyCost, 100*cr.cold.Utilization, cr.cold.Finish)
		}
		fmt.Fprintf(s.out, "| best | power-aware 1st/2nd | %.1f / %.1f | — | %d / %d |\n\n",
			t.first.EnergyCost(), t.warm.EnergyCost(), t.first.Finish(), t.warm.Finish())

		fmt.Fprint(s.out, "## Table 4 — 48-step mission\n\n```\n")
		fmt.Fprint(s.out, mission.FormatTable(jpl, pa))
		fmt.Fprint(s.out, "```\n\n## Figures\n\n| figure | measured |\n|---|---|\n")
		for _, f := range figs {
			fmt.Fprintf(s.out, "| %s | %s |\n", f[0], f[1])
		}
		fmt.Fprintln(s.out)
		return nil
	}
}
