// Command validate independently verifies a schedule against its
// problem specification: timing constraints, resource serialization,
// and the max power budget, plus re-derived metrics. The schedule is
// the JSON document emitted by `impacct -format json`.
//
//	impacct -format json problem.spec > sched.json
//	validate problem.spec sched.json
//
// A heterogeneous schedule is checked against the resolved problem it
// runs (every task pinned to its machine, at its one level), which
// `impacct -format spec` prints:
//
//	impacct -format spec hetero.spec > resolved.spec
//	impacct -format json hetero.spec > sched.json
//	validate resolved.spec sched.json
//
// Exit status 0 means the schedule is valid; 1 means violations were
// found (each printed); 2 means the inputs could not be read.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/spec"
)

func main() {
	quiet := flag.Bool("q", false, "suppress metrics output, print violations only")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: validate [-q] <spec-file> <schedule-json>")
		os.Exit(2)
	}

	prob, err := impacct.ParseSpecFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(2)
	}
	sched, err := spec.ParseScheduleJSON(prob, data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(2)
	}

	rep := impacct.Verify(prob, sched)
	for _, v := range rep.Violations {
		fmt.Println("violation:", v)
	}
	if !*quiet {
		m := rep.Metrics
		fmt.Printf("finish: %d s\npeak: %.4g W\nenergy: %.4g J\nenergy cost: %.4g J\nutilization: %.2f%%\ngap seconds: %d\n",
			m.Finish, m.Peak, m.Energy, m.EnergyCost, 100*m.Utilization, rep.GapSeconds)
	}
	if !rep.OK() {
		os.Exit(1)
	}
}
