// Command library manages precomputed schedule libraries — the ground
// half of the paper's section 5.3 deployment model (compute schedules
// on the ground, uplink a library, select on board).
//
//	library build -o rover.lib [spec files...]   # rover cases + extra specs
//	library show rover.lib                       # validity-range table
//	library select rover.lib -solar 12 -battery 10
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/rover"
	"repro/internal/runtime"
	"repro/internal/sched"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "show":
		show(os.Args[2:])
	case "select":
		selectCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  library build -o <file> [spec files...]
  library show <file>
  library select <file> -solar <W> [-battery <W>]`)
	os.Exit(2)
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	out := fs.String("o", "", "output library file (required)")
	seed := fs.Int64("seed", 0, "random seed for the heuristics")
	noRover := fs.Bool("no-rover", false, "skip the built-in rover schedules")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("build needs -o <file>"))
	}

	opts := sched.Options{Seed: *seed}
	var sel runtime.Selector
	if !*noRover {
		for _, c := range rover.Cases {
			p := rover.BuildIteration(c, rover.Cold)
			r, err := sched.Run(p, opts)
			if err != nil {
				fatal(fmt.Errorf("scheduling %s: %w", p.Name, err))
			}
			sel.Add(runtime.NewEntry(p.Name, r.EffectiveProblem(), r.Schedule))
		}
	}
	for _, path := range fs.Args() {
		p, err := impacct.ParseSpecFile(path)
		if err != nil {
			fatal(err)
		}
		r, err := sched.Run(p, opts)
		if err != nil {
			fatal(fmt.Errorf("scheduling %s: %w", p.Name, err))
		}
		sel.Add(runtime.NewEntry(p.Name, r.EffectiveProblem(), r.Schedule))
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := runtime.Save(f, &sel); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d schedules to %s\n", len(sel.Entries()), *out)
}

func load(path string) *runtime.Selector {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sel, err := runtime.Load(f)
	if err != nil {
		fatal(err)
	}
	return sel
}

func show(args []string) {
	if len(args) != 1 {
		usage()
	}
	fmt.Print(load(args[0]).Table())
}

func selectCmd(args []string) {
	if len(args) < 1 {
		usage()
	}
	sel := load(args[0])
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	solar := fs.Float64("solar", 0, "current free (solar) power in watts")
	battery := fs.Float64("battery", 10, "battery max output in watts")
	fs.Parse(args[1:])

	e, ok := sel.Select(*solar+*battery, *solar)
	if !ok {
		fatal(fmt.Errorf("no schedule fits %.4g W solar + %.4g W battery", *solar, *battery))
	}
	fmt.Printf("selected %s: tau=%d s, needs Pmax>=%.4g W, cost at %.4g W solar = %.4g J\n",
		e.Name, e.Finish, e.RequiredPmax, *solar, e.CostAt(*solar))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "library:", err)
	os.Exit(1)
}
