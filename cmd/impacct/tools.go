package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"

	"repro"
	"repro/internal/rover"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/spec"
)

// genCmd emits a random, feasible problem in the spec format, for
// stress tests and scaling experiments. A zero size takes the
// generator's default; a negative one is a usage error.
func genCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		tasks     = fs.Int("tasks", 20, "number of tasks")
		resources = fs.Int("resources", 4, "number of execution resources")
		layers    = fs.Int("layers", 0, "precedence depth (0 = tasks/5)")
		maxDelay  = fs.Int("max-delay", 8, "maximum task delay in seconds")
		maxPower  = fs.Float64("max-power", 10, "maximum task power in watts, at least 1 (powers are drawn from [1, max))")
		seed      = fs.Int64("seed", 0, "generator seed")
		out       = fs.String("o", "", "output file (default stdout)")
	)
	return "", 0, func(_ []string, s stdio) error {
		if min(*tasks, *resources, *layers, *maxDelay) < 0 {
			return exitError{2, fmt.Errorf("-tasks, -resources, -layers and -max-delay must not be negative")}
		}
		if !(*maxPower >= 1) || math.IsInf(*maxPower, 1) {
			return exitError{2, fmt.Errorf("-max-power must be a finite number of at least 1 W, got %g", *maxPower)}
		}
		p := impacct.GenerateProblem(impacct.GenConfig{
			Tasks:     *tasks,
			Resources: *resources,
			Layers:    *layers,
			MaxDelay:  *maxDelay,
			MaxPower:  *maxPower,
			Seed:      *seed,
		})
		if err := p.Validate(); err != nil {
			return err
		}
		return writeOutput(s.out, *out, impacct.FormatSpec(p))
	}
}

// validateCmd independently verifies a schedule, the JSON document
// `impacct -format json` emits, against its problem: timing
// constraints, resource serialization and the max power budget, plus
// re-derived metrics. A heterogeneous schedule is checked against the
// resolved problem `impacct -format spec` prints. It exits 0 when the
// schedule is valid, 1 when it found violations (each printed) and 2
// when an input could not be read.
func validateCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	quiet := fs.Bool("q", false, "suppress metrics output, print violations only")
	return "<spec-file> <schedule-json>", 2, func(args []string, s stdio) error {
		prob, err := impacct.ParseSpecFile(args[0])
		if err != nil {
			return exitError{2, err}
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			return exitError{2, err}
		}
		sch, err := spec.ParseScheduleJSON(prob, data)
		if err != nil {
			return exitError{2, err}
		}
		rep := impacct.Verify(prob, sch)
		for _, v := range rep.Violations {
			fmt.Fprintln(s.out, "violation:", v)
		}
		if !*quiet {
			m := rep.Metrics
			fmt.Fprintf(s.out, "finish: %d s\npeak: %.4g W\nenergy: %.4g J\nenergy cost: %.4g J\nutilization: %.2f%%\ngap seconds: %d\n",
				m.Finish, m.Peak, m.Energy, m.EnergyCost, 100*m.Utilization, rep.GapSeconds)
		}
		if !rep.OK() {
			return exitError{code: 1}
		}
		return nil
	}
}

// libraryBuildCmd is the ground half of the paper's section 5.3
// deployment model: it schedules the rover's cold iterations and any
// extra specs, and writes them as one schedule library to uplink.
func libraryBuildCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		out     = fs.String("o", "", "output library file (required)")
		seed    = fs.Int64("seed", 0, "random seed for the heuristics")
		noRover = fs.Bool("no-rover", false, "skip the built-in rover schedules")
	)
	return "[spec-file...]", -1, func(args []string, s stdio) error {
		if *out == "" {
			return fmt.Errorf("-o <file> is required")
		}
		var probs []*impacct.Problem
		if !*noRover {
			for _, c := range rover.Cases {
				probs = append(probs, rover.BuildIteration(c, rover.Cold))
			}
		}
		for _, path := range args {
			p, err := impacct.ParseSpecFile(path)
			if err != nil {
				return err
			}
			probs = append(probs, p)
		}
		var sel runtime.Selector
		for _, p := range probs {
			r, err := sched.Run(p, sched.Options{Seed: *seed})
			if err != nil {
				return fmt.Errorf("scheduling %s: %w", p.Name, err)
			}
			sel.Add(runtime.NewEntry(p.Name, r.EffectiveProblem(), r.Schedule))
		}
		var buf bytes.Buffer
		if err := runtime.Save(&buf, &sel); err != nil {
			return err
		}
		if err := writeOutput(s.out, *out, buf.String()); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "wrote %d schedules to %s\n", len(sel.Entries()), *out)
		return nil
	}
}

// libraryShowCmd prints a library's validity-range table.
func libraryShowCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	return "<library-file>", 1, func(args []string, s stdio) error {
		sel, err := loadLibrary(args[0])
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, sel.Table())
		return nil
	}
}

// librarySelectCmd is the on-board half: it picks the library's
// schedule for the current solar and battery power.
func librarySelectCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		solar   = fs.Float64("solar", 0, "current free (solar) power in watts")
		battery = fs.Float64("battery", 10, "battery max output in watts")
	)
	return "<library-file>", 1, func(args []string, s stdio) error {
		sel, err := loadLibrary(args[0])
		if err != nil {
			return err
		}
		e, ok := sel.Select(*solar+*battery, *solar)
		if !ok {
			return fmt.Errorf("no schedule fits %.4g W solar + %.4g W battery", *solar, *battery)
		}
		fmt.Fprintf(s.out, "selected %s: tau=%d s, needs Pmax>=%.4g W, cost at %.4g W solar = %.4g J\n",
			e.Name, e.Finish, e.RequiredPmax, *solar, e.CostAt(*solar))
		return nil
	}
}

func loadLibrary(path string) (*runtime.Selector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return runtime.Load(bytes.NewReader(data))
}
