// Command impacct schedules a power-aware problem specification and
// renders the result.
//
// Usage:
//
//	impacct [flags] <spec-file>
//
// The spec file uses the format of internal/spec ("-" reads stdin).
// Flags select the pipeline stage, output format, and heuristics.
//
// Example:
//
//	impacct -stage minpower -format ascii testdata/example9.spec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/dot"
)

func main() {
	var (
		stage    = flag.String("stage", "minpower", "pipeline stage: timing, maxpower, or minpower")
		format   = flag.String("format", "ascii", "output: ascii, svg, json, spec, dot, or metrics")
		scale    = flag.Int("scale", 1, "seconds per character column in ascii output")
		seed     = flag.Int64("seed", 0, "random seed for the heuristics")
		restarts = flag.Int("restarts", 0, "restart portfolio size: run the pipeline this many times with perturbed orders and keep the best result (0 = single run)")
		workers  = flag.Int("workers", 0, "concurrent restart workers; any value yields identical results (0 = GOMAXPROCS)")
		out      = flag.String("o", "", "write output to this file instead of stdout")
		check    = flag.Bool("verify", false, "independently verify the schedule before emitting it")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: impacct [flags] <spec-file>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var (
		prob *impacct.Problem
		err  error
	)
	if flag.Arg(0) == "-" {
		prob, err = impacct.ParseSpec(os.Stdin)
	} else {
		prob, err = impacct.ParseSpecFile(flag.Arg(0))
	}
	if err != nil {
		fatal(err)
	}

	opts := impacct.Options{Seed: *seed, Restarts: *restarts, Workers: *workers}
	var res *impacct.Result
	switch *stage {
	case "timing":
		res, err = impacct.Timing(prob, opts)
	case "maxpower":
		res, err = impacct.MaxPower(prob, opts)
	case "minpower":
		res, err = impacct.Run(prob, opts)
	default:
		fatal(fmt.Errorf("unknown stage %q", *stage))
	}
	if err != nil {
		fatal(err)
	}
	// Verify and render against the resolved problem so heterogeneous
	// runs show the chosen machine/level delays and powers (and -format
	// spec prints the problem cmd/validate checks the plan against); for
	// degenerate problems this is the parsed problem itself.
	eff := res.EffectiveProblem()
	if *check {
		if rep := impacct.Verify(eff, res.Schedule); !rep.OK() {
			fatal(fmt.Errorf("schedule failed verification: %w", rep.Err()))
		}
	}
	var body string
	switch *format {
	case "ascii":
		body = impacct.NewChart(eff, res.Schedule).ASCII(*scale)
	case "svg":
		body = impacct.NewChart(eff, res.Schedule).SVG()
	case "json":
		body = renderJSON(eff, res)
	case "spec":
		body = impacct.FormatSpec(eff)
	case "dot":
		body = dot.Scheduled(eff, res.Schedule)
	case "metrics":
		body = renderMetrics(res)
	default:
		fatal(fmt.Errorf("unknown format %q", *format))
	}

	if *out == "" {
		fmt.Print(body)
		return
	}
	if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
		fatal(err)
	}
}

func renderMetrics(res *impacct.Result) string {
	return fmt.Sprintf("finish: %d s\npeak: %.4g W\nenergy cost: %.4g J\nutilization: %.2f%%\n",
		res.Finish(), res.Peak(), res.EnergyCost(), 100*res.Utilization())
}

func renderJSON(prob *impacct.Problem, res *impacct.Result) string {
	type taskOut struct {
		Name     string  `json:"name"`
		Resource string  `json:"resource"`
		Start    int     `json:"start"`
		End      int     `json:"end"`
		Power    float64 `json:"power"`
	}
	doc := struct {
		Problem     string    `json:"problem"`
		Finish      int       `json:"finish"`
		Peak        float64   `json:"peak"`
		EnergyCost  float64   `json:"energyCost"`
		Utilization float64   `json:"utilization"`
		Tasks       []taskOut `json:"tasks"`
	}{
		Problem:     prob.Name,
		Finish:      res.Finish(),
		Peak:        res.Peak(),
		EnergyCost:  res.EnergyCost(),
		Utilization: res.Utilization(),
	}
	for i, t := range prob.Tasks {
		doc.Tasks = append(doc.Tasks, taskOut{
			Name:     t.Name,
			Resource: t.Resource,
			Start:    res.Schedule.Start[i],
			End:      res.Schedule.Start[i] + t.Delay,
			Power:    t.Power,
		})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	return string(b) + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "impacct:", err)
	os.Exit(1)
}
