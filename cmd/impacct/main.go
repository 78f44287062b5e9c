// Command impacct is the offline IMPACCT tool: it schedules a
// power-aware problem specification and renders the result, and its
// subcommands regenerate the paper's evaluation, explore a problem's
// design space, generate and check problems and schedules, keep the
// ground-computed schedule library, fly fault-injection campaigns and
// edit a schedule interactively.
//
// Usage:
//
//	impacct [flags] <spec-file>                 schedule one spec ("-" reads stdin)
//	impacct rover [flags]                       Table 3 (with -gantt, Figs. 9-11)
//	impacct mission [flags]                     Table 4, the 48-step mission
//	impacct report [flags]                      every table and figure as markdown
//	impacct ablate [flags] <spec-file>          compare heuristic configurations
//	impacct sweep [flags] <spec-file>           max-power sweep and Pareto front
//	impacct gen [flags]                         a random feasible problem
//	impacct validate [flags] <spec> <json>      verify a schedule independently
//	impacct library build -o <file> [spec...]   schedule the rover cases and specs
//	impacct library show <file>                 a library's validity-range table
//	impacct library select [flags] <file>       pick a schedule for -solar/-battery
//	impacct simulate [flags]                    Monte-Carlo fault-injection campaign
//	impacct edit [flags] <spec-file>            interactive Gantt-chart session
//
// The spec file uses the format of internal/spec. A first argument
// that names a subcommand runs it; to schedule a spec file literally
// named like one, pass it as ./rover. Flags come before operands.
// Usage errors exit 2, failures 1; validate exits 1 when it finds
// violations and 2 when an input is unreadable.
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
	"sort"
	"strings"

	"repro"
	"repro/internal/dot"
)

// A command declares its flags on fs and returns the usage of its
// operands ("" for none), how many it takes (-1 for any number), and
// the body to run on them once they are parsed.
type command func(fs *flag.FlagSet) (operands string, nargs int, body func(args []string, s stdio) error)

// stdio is the streams a command reads and writes.
type stdio struct {
	in       io.Reader
	out, err io.Writer
}

// exitError makes run exit with code after printing err, if any.
type exitError struct {
	code int
	err  error
}

func (e exitError) Error() string { return fmt.Sprintf("exit status %d: %v", e.code, e.err) }

var subcommands = map[string]command{
	"rover":          roverCmd,
	"mission":        missionCmd,
	"report":         reportCmd,
	"ablate":         ablateCmd,
	"sweep":          sweepCmd,
	"gen":            genCmd,
	"validate":       validateCmd,
	"library build":  libraryBuildCmd,
	"library show":   libraryShowCmd,
	"library select": librarySelectCmd,
	"simulate":       simulateCmd,
	"edit":           editCmd,
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run dispatches to the subcommand args begin with, else schedules a
// spec file, and returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	name, cmd, args := lookup(args)
	if cmd == nil {
		usage(stderr, "impacct", "<spec-file>")
		return 2
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	operands, nargs, body := cmd(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if nargs >= 0 && fs.NArg() != nargs {
		usage(stderr, name, operands)
		fs.PrintDefaults()
		return 2
	}
	err := body(fs.Args(), stdio{stdin, stdout, stderr})
	if err == nil {
		return 0
	}
	code := 1
	var exit exitError
	if errors.As(err, &exit) {
		code, err = exit.code, exit.err
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	return code
}

// lookup splits args into the command they name, that command and its
// arguments: a two-word subcommand ("library show") before a one-word
// one, else the default schedule command. A word that only begins
// two-word names ("library" alone) names no command.
func lookup(args []string) (string, command, []string) {
	for n := min(2, len(args)); n > 0; n-- {
		if cmd, ok := subcommands[strings.Join(args[:n], " ")]; ok {
			return "impacct " + strings.Join(args[:n], " "), cmd, args[n:]
		}
	}
	for name := range subcommands {
		if len(args) > 0 && strings.HasPrefix(name, args[0]+" ") {
			return "", nil, nil
		}
	}
	return "impacct", scheduleCmd, args
}

// usage prints name's usage line; the default command's also lists
// every subcommand's.
func usage(w io.Writer, name, operands string) {
	fmt.Fprintln(w, "usage:", strings.TrimSpace(name+" [flags] "+operands))
	if name != "impacct" {
		return
	}
	var names []string
	for n := range subcommands {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		operands, _, _ := subcommands[n](flag.NewFlagSet(n, flag.ContinueOnError))
		fmt.Fprintln(w, "      ", strings.TrimSpace("impacct "+n+" [flags] "+operands))
	}
	fmt.Fprintln(w, "       (-h after a command lists its flags)")
}

// writeOutput writes body to the file path names, or to w when path is
// "". Every -o flag writes through it.
func writeOutput(w io.Writer, path, body string) error {
	if path == "" {
		_, err := io.WriteString(w, body)
		return err
	}
	return os.WriteFile(path, []byte(body), 0o644)
}

func scheduleCmd(fs *flag.FlagSet) (string, int, func([]string, stdio) error) {
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
	return "<spec-file>", 1, func(args []string, s stdio) error {
		var (
			prob *impacct.Problem
			err  error
		)
		if args[0] == "-" {
			prob, err = impacct.ParseSpec(s.in)
		} else {
			prob, err = impacct.ParseSpecFile(args[0])
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
		// spec prints the problem `impacct validate` checks the plan
		// against); for degenerate problems this is the parsed problem
		// itself.
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
		return writeOutput(s.out, *out, body)
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
