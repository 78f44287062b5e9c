package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/mission"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
)

// simulateCmd runs a Monte-Carlo fault-injection campaign over a
// mission: N seeded runs, each perturbing task durations, solar output
// and battery capacity, with online contingency rescheduling through
// one scheduling service whenever the replay detects a violation. The
// default mission is the paper's Table 4 rover staircase; -scenario
// loads a scenario file (including scripted fault windows), -spec
// simulates an arbitrary problem under its own Pmax/Pmin. The summary
// is deterministic: the same -n and -seed print byte-identical JSON at
// any -workers.
func simulateCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		scenario     = fs.String("scenario", "", "scenario file with phases, battery, and scripted faults (default: built-in Table 4 staircase)")
		specFile     = fs.String("spec", "", "simulate a problem spec instead of the rover mission")
		n            = fs.Int("n", 100, "number of seeded runs")
		seed         = fs.Int64("seed", 1, "campaign master seed")
		faults       = fs.String("faults", "", "fault model: comma-separated key=value overrides, or \"none\" (see internal/sim.ParseFaults)")
		workers      = fs.Int("workers", 0, "worker pool width (0 = GOMAXPROCS); does not affect results")
		jsonOut      = fs.Bool("json", false, "emit the JSON summary instead of the text report")
		deadline     = fs.Int("deadline", 0, "mission deadline in seconds (0 = 8x the nominal finish)")
		schedSeed    = fs.Int64("sched-seed", 0, "random seed for the scheduling heuristics")
		restarts     = fs.Int("restarts", 0, "restart portfolio size for every (re)schedule, including contingency rescheduling (0 = single run)")
		schedWorkers = fs.Int("sched-workers", 0, "concurrent restart workers inside each pipeline run; any value yields identical results (0 = GOMAXPROCS)")
		minSurvival  = fs.Float64("min-survival", -1, "exit nonzero when the survival rate falls below this (for CI gates)")
		progress     = fs.Duration("progress", 0, "print campaign progress to stderr at this interval (0 = off)")
	)
	return "", 0, func(_ []string, s stdio) error {
		m, err := buildMission(*scenario, *specFile)
		if err != nil {
			return err
		}
		m.Deadline = *deadline
		fm, err := sim.ParseFaults(*faults)
		if err != nil {
			return err
		}
		c := sim.Campaign{
			Mission: m,
			Faults:  fm,
			Runs:    *n,
			Seed:    *seed,
			Opts:    sched.Options{Seed: *schedSeed, Restarts: *restarts, Workers: *schedWorkers},
			Svc:     service.New(service.Config{Workers: *workers}),
		}
		// Ctrl-C aborts the campaign: no partial summary is printed,
		// since it would silently skew every statistic.
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if *progress > 0 {
			defer reportProgress(s.err, *progress, *n)()
		}
		sum, err := c.RunCtx(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			data, err := sum.JSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(s.out, string(data))
		} else {
			printSummary(s.out, sum)
		}
		if *minSurvival >= 0 && sum.SurvivalRate < *minSurvival {
			return fmt.Errorf("survival rate %.3f below required %.3f", sum.SurvivalRate, *minSurvival)
		}
		return nil
	}
}

func buildMission(scenario, specFile string) (sim.Mission, error) {
	switch {
	case scenario != "" && specFile != "":
		return sim.Mission{}, fmt.Errorf("use -scenario or -spec, not both")
	case specFile != "":
		p, err := impacct.ParseSpecFile(specFile)
		if err != nil {
			return sim.Mission{}, err
		}
		if p.Pmax <= 0 {
			return sim.Mission{}, fmt.Errorf("%s: spec needs a positive pmax to simulate against", specFile)
		}
		return sim.ProblemMission(p), nil
	case scenario != "":
		sc, err := mission.ParseScenarioFile(scenario)
		if err != nil {
			return sim.Mission{}, err
		}
		return sim.RoverMission(sc), nil
	default:
		return sim.PaperMission(), nil
	}
}

func printSummary(w io.Writer, s sim.Summary) {
	fmt.Fprintf(w, "campaign: %d runs, seed %d\n", s.Runs, s.Seed)
	fmt.Fprintf(w, "  survived        %4d (%.1f%%)\n", s.Survived, 100*s.SurvivalRate)
	fmt.Fprintf(w, "  deadline misses %4d (%.1f%%)\n", s.DeadlineMisses, 100*s.DeadlineMissRate)
	fmt.Fprintf(w, "  reschedules     %4d   fallbacks %d   waits %d\n", s.Reschedules, s.Fallbacks, s.Waits)
	fmt.Fprintf(w, "  verify rejects  %4d   constraint drops %d\n", s.VerifyRejects, s.ConstraintDrops)
	if len(s.Failures) > 0 {
		fmt.Fprintf(w, "  failures:")
		for _, k := range []string{sim.FailTask, sim.FailBattery, sim.FailInfeasible, sim.FailUnschedulable, sim.FailRescheduleLimit} {
			if n := s.Failures[k]; n > 0 {
				fmt.Fprintf(w, " %s=%d", k, n)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  battery energy  mean %.4g J  p50 %.4g  p95 %.4g  max %.4g\n",
		s.EnergyCost.Mean, s.EnergyCost.P50, s.EnergyCost.P95, s.EnergyCost.Max)
	if s.Survived > 0 {
		fmt.Fprintf(w, "  finish time     mean %.4g s  p50 %.4g  p95 %.4g  max %.4g\n",
			s.Finish.Mean, s.Finish.P50, s.Finish.P95, s.Finish.Max)
	}
}

// reportProgress prints the campaign's progress counters to w at the
// given interval until the returned stop function is called. The
// counters are process-global (this process runs exactly one
// campaign), so the delta against the start-of-campaign snapshot is
// this campaign's progress.
func reportProgress(w io.Writer, every time.Duration, total int) (stop func()) {
	base := sim.Progress()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				p := sim.Progress()
				fmt.Fprintf(w, "impacct simulate: %d/%d runs done, %d failed, seed high-water %d\n",
					p.RunsDone-base.RunsDone, total, p.RunsFailed-base.RunsFailed, p.SeedHighWater)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
