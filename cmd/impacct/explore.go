package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/analysis"
	"repro/internal/sched"
	"repro/internal/service"
)

// ablateCmd compares the scheduler's heuristic configurations on one
// problem: the default pipeline against single scan orders, single
// slot heuristics, disabled locks, multi-restart search, a one-scan
// min-power budget, and compaction.
func ablateCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		seed     = fs.Int64("seed", 0, "random seed for the heuristics")
		restarts = fs.Int("restarts", 8, "restart count for the multi-restart row")
	)
	return "<spec-file>", 1, func(args []string, s stdio) error {
		prob, err := impacct.ParseSpecFile(args[0])
		if err != nil {
			return err
		}
		configs := map[string]sched.Options{
			"default":            {Seed: *seed},
			"scan-forward-only":  {Seed: *seed, ScanOrders: []sched.ScanOrder{sched.ScanForward}},
			"scan-reverse-only":  {Seed: *seed, ScanOrders: []sched.ScanOrder{sched.ScanReverse}},
			"scan-random-only":   {Seed: *seed, ScanOrders: []sched.ScanOrder{sched.ScanRandom}},
			"slot-start-only":    {Seed: *seed, SlotChoices: []sched.SlotChoice{sched.SlotStartAtGap}},
			"slot-finish-only":   {Seed: *seed, SlotChoices: []sched.SlotChoice{sched.SlotFinishAtGapEnd}},
			"locks-disabled":     {Seed: *seed, DisableLocks: true},
			"multi-restart":      {Seed: *seed, Restarts: *restarts},
			"single-scan-budget": {Seed: *seed, MaxScans: 1},
			"compaction":         {Seed: *seed, Compact: true},
		}
		fmt.Fprintf(s.out, "heuristic ablation on %s:\n", prob.Name)
		fmt.Fprint(s.out, analysis.FormatHeuristicRows(analysis.CompareHeuristics(prob, configs)))
		return nil
	}
}

// sweepCmd explores the power/performance design space of a problem:
// it schedules the problem under a range of max-power budgets, prints
// every design point, and marks the Pareto front of the finish-time
// versus energy-cost trade-off, the exploration loop the IMPACCT
// framework was built to enable. The points evaluate concurrently on
// one scheduling service (-stats prints its counters afterwards).
func sweepCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
	var (
		budgets      = fs.String("pmax", "", "comma-separated max-power budgets to sweep (default: 10 points around the spec's Pmax)")
		seed         = fs.Int64("seed", 0, "random seed for the heuristics")
		pareto       = fs.Bool("pareto", true, "also print the time/energy Pareto front")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		restarts     = fs.Int("restarts", 0, "restart portfolio size per design point (0 = single run)")
		schedWorkers = fs.Int("sched-workers", 0, "concurrent restart workers inside each pipeline run; any value yields identical results (0 = GOMAXPROCS)")
		showStats    = fs.Bool("stats", false, "print scheduling-service metrics after the sweep")
	)
	return "<spec-file>", 1, func(args []string, s stdio) error {
		prob, err := impacct.ParseSpecFile(args[0])
		if err != nil {
			return err
		}
		var list []float64
		if *budgets != "" {
			for _, f := range strings.Split(*budgets, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return fmt.Errorf("bad -pmax entry %q: %v", f, err)
				}
				list = append(list, v)
			}
		} else {
			list = defaultBudgets(prob)
		}

		// Ctrl-C aborts the sweep cooperatively: in-flight pipeline runs
		// stop at their next cancellation poll and unstarted points are
		// never submitted (their rows report the cancellation).
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()

		svc := service.New(service.Config{Workers: *workers})
		opts := sched.Options{Seed: *seed, Restarts: *restarts, Workers: *schedWorkers}
		pts := analysis.Sweep(ctx, svc, prob, list, nil, opts)
		fmt.Fprintf(s.out, "design points for %s:\n", prob.Name)
		fmt.Fprint(s.out, analysis.FormatPoints(pts))
		if *pareto {
			fmt.Fprintln(s.out, "\npareto front (finish time vs energy cost):")
			fmt.Fprint(s.out, analysis.FormatPoints(analysis.Pareto(pts)))
		}
		if *showStats {
			data, err := json.MarshalIndent(svc.Stats(), "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "\nservice stats:\n%s\n", data)
		}
		return nil
	}
}

// defaultBudgets spreads ten budgets from "one heavy task" up to 150 %
// of the spec's Pmax (or of the total parallel power when unset).
func defaultBudgets(p *impacct.Problem) []float64 {
	top := p.Pmax
	if top == 0 {
		for _, t := range p.Tasks {
			top += t.Power
		}
		top += p.BasePower
	}
	lo := 0.0
	for _, t := range p.Tasks {
		if t.Power+p.BasePower > lo {
			lo = t.Power + p.BasePower
		}
	}
	hi := top * 1.5
	var out []float64
	for i := 0; i < 10; i++ {
		out = append(out, lo+(hi-lo)*float64(i)/9)
	}
	return out
}
