// Command ablate compares the scheduler's heuristic configurations on
// one problem: the default pipeline against single scan orders, single
// slot heuristics, disabled locks, multi-restart search, a one-scan
// min-power budget, and compaction.
//
//	ablate testdata/example9.spec
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/analysis"
	"repro/internal/sched"
)

func main() {
	var (
		seed     = flag.Int64("seed", 0, "random seed for the heuristics")
		restarts = flag.Int("restarts", 8, "restart count for the multi-restart row")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ablate [flags] <spec-file>")
		os.Exit(2)
	}
	prob, err := impacct.ParseSpecFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ablate:", err)
		os.Exit(1)
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
	rows := analysis.CompareHeuristics(prob, configs)
	fmt.Printf("heuristic ablation on %s:\n", prob.Name)
	fmt.Print(analysis.FormatHeuristicRows(rows))
}
