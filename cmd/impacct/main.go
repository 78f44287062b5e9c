// Command impacct is the offline IMPACCT tool: it schedules a
// power-aware problem specification and renders the result, and its
// subcommands regenerate the paper's evaluation and explore a
// problem's design space.
//
// Usage:
//
//	impacct [flags] <spec-file>         schedule one spec ("-" reads stdin)
//	impacct rover [flags]               Table 3 (with -gantt, Figs. 9-11)
//	impacct mission [flags]             Table 4, the 48-step mission
//	impacct report [flags]              every table and figure as markdown
//	impacct ablate [flags] <spec-file>  compare heuristic configurations
//	impacct sweep [flags] <spec-file>   max-power sweep and Pareto front
//
// The spec file uses the format of internal/spec. A first argument
// that names a subcommand runs it; to schedule a spec file literally
// named like one, pass it as ./rover. Usage errors exit 2, failures 1.
//
// Example:
//
//	impacct -stage minpower -format ascii testdata/example9.spec
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/dot"
)

// A command declares its flags on fs and returns the operand its usage
// line names ("" for none) and the body to run once they are parsed;
// body gets the operand's value (a spec-file path) or "".
type command func(fs *flag.FlagSet) (operand string, body func(spec string, stdout io.Writer) error)

var subcommands = map[string]command{
	"rover":   roverCmd,
	"mission": missionCmd,
	"report":  reportCmd,
	"ablate":  ablateCmd,
	"sweep":   sweepCmd,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches to the subcommand args[0] names, else schedules a
// spec file, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "impacct", command(scheduleCmd)
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			name, cmd, args = "impacct "+args[0], sub, args[1:]
		}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	operand, body := cmd(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage, want := name+" [flags]", 0
	if operand != "" {
		usage, want = usage+" "+operand, 1
	}
	if fs.NArg() != want {
		fmt.Fprintln(stderr, "usage:", usage)
		if name == "impacct" {
			fmt.Fprintln(stderr, "       impacct {ablate|mission|report|rover|sweep} [flags] (-h lists each one's flags)")
		}
		fs.PrintDefaults()
		return 2
	}
	if err := body(fs.Arg(0), stdout); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

func scheduleCmd(fs *flag.FlagSet) (string, func(string, io.Writer) error) {
	var (
		stage    = fs.String("stage", "minpower", "pipeline stage: timing, maxpower, or minpower")
		format   = fs.String("format", "ascii", "output: ascii, svg, json, spec, dot, or metrics")
		scale    = fs.Int("scale", 1, "seconds per character column in ascii output")
		seed     = fs.Int64("seed", 0, "random seed for the heuristics")
		restarts = fs.Int("restarts", 0, "restart portfolio size: run the pipeline this many times with perturbed orders and keep the best result (0 = single run)")
		workers  = fs.Int("workers", 0, "concurrent restart workers; any value yields identical results (0 = GOMAXPROCS)")
		out      = fs.String("o", "", "write output to this file instead of stdout")
		check    = fs.Bool("verify", false, "independently verify the schedule before emitting it")
	)
	return "<spec-file>", func(spec string, stdout io.Writer) error {
		var (
			prob *impacct.Problem
			err  error
		)
		if spec == "-" {
			prob, err = impacct.ParseSpec(os.Stdin)
		} else {
			prob, err = impacct.ParseSpecFile(spec)
		}
		if err != nil {
			return err
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
			return fmt.Errorf("unknown stage %q", *stage)
		}
		if err != nil {
			return err
		}
		// Verify and render against the resolved problem so heterogeneous
		// runs show the chosen machine/level delays and powers (and -format
		// spec prints the problem cmd/validate checks the plan against); for
		// degenerate problems this is the parsed problem itself.
		eff := res.EffectiveProblem()
		if *check {
			if rep := impacct.Verify(eff, res.Schedule); !rep.OK() {
				return fmt.Errorf("schedule failed verification: %w", rep.Err())
			}
		}
		var body string
		switch *format {
		case "ascii":
			body = impacct.NewChart(eff, res.Schedule).ASCII(*scale)
		case "svg":
			body = impacct.NewChart(eff, res.Schedule).SVG()
		case "json":
			if body, err = renderJSON(eff, res); err != nil {
				return err
			}
		case "spec":
			body = impacct.FormatSpec(eff)
		case "dot":
			body = dot.Scheduled(eff, res.Schedule)
		case "metrics":
			body = renderMetrics(res)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}

		if *out == "" {
			_, err = io.WriteString(stdout, body)
			return err
		}
		return os.WriteFile(*out, []byte(body), 0o644)
	}
}

func renderMetrics(res *impacct.Result) string {
	return fmt.Sprintf("finish: %d s\npeak: %.4g W\nenergy cost: %.4g J\nutilization: %.2f%%\n",
		res.Finish(), res.Peak(), res.EnergyCost(), 100*res.Utilization())
}

func renderJSON(prob *impacct.Problem, res *impacct.Result) (string, error) {
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
		return "", err
	}
	return string(b) + "\n", nil
}
