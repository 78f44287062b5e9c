// Command benchgate compares two `go test -bench` outputs (typically
// the PR head and its merge-base) and exits non-zero when any
// benchmark matching -pattern regressed by more than -max-regress in
// ns/op or more than -max-alloc-regress in allocs/op. CI runs it after
// benchstat so the human-readable diff is archived either way;
// benchgate is the machine verdict.
//
// The allocation gate is what locks in the flat-memory scheduler core:
// ns/op on a shared CI machine is noisy, but allocs/op is exact and
// deterministic, so an accidental per-probe allocation on the hot path
// shows up as a precise integer jump even when the timing gate would
// have absorbed it in noise.
//
// Benchmarks are matched by name with the -cpu suffix stripped
// (BenchmarkPipeline200-8 and BenchmarkPipeline200-4 compare). With
// -count > 1 each metric is the minimum per name (internal/benchfmt),
// which keeps the gate from flagging phantom regressions on shared CI
// machines.
//
// A base file with no matching benchmarks (the merge-base predates the
// benchmark suite) passes the regression gates with a notice, so the
// gate can be enabled in the same PR that introduces the benchmarks;
// the head-only speedup gate is enforced all the same. A benchmark that stopped
// reporting allocations skips the allocation gate only when the base
// did not report them either.
//
// Beyond the base-vs-head regression gates, -min-speedup (with
// -speedup-slow / -speedup-fast) asserts an absolute property of the
// head run alone: the fast variant of a benchmark pair must beat the
// slow one by a ratio relative to the machine — how CI locks in that
// the pooled campaign engine actually scales. -min-speedup is the ratio
// per usable CPU: the bound is -min-speedup × min(CPUs, width), where
// width is the fast variant's parallel width, read from its name's
// trailing key=N (pooled=8 → 8; none means no cap). At 0.75 the pool
// must reach 6× on an 8-CPU box, 3× on 4 CPUs and 1.5× on 2, so the
// gate is enforced on every machine.
//
// -json replaces the table with a machine-readable report on stdout
// (the exit code is the same in both modes), for archiving the verdict
// as a CI artifact next to the benchstat diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the verdict to stdout and
// returns the exit code — 0 when every gate passed, 1 when one failed,
// 2 for bad input. Every path returns 1 on a failed gate, whether or
// not any base benchmark matched -pattern.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseFile := fs.String("base", "", "bench output of the merge-base")
	headFile := fs.String("head", "", "bench output of the PR head")
	pattern := fs.String("pattern", "^BenchmarkPipeline", "regexp of benchmark names to gate")
	maxRegress := fs.Float64("max-regress", 0.15, "maximum allowed ns/op regression (0.15 = +15%)")
	maxAllocRegress := fs.Float64("max-alloc-regress", 0.10, "maximum allowed allocs/op regression (0.10 = +10%); negative disables the allocation gate")
	speedupSlow := fs.String("speedup-slow", "", "slow-variant benchmark name (cpu suffix stripped) for the head speedup gate")
	speedupFast := fs.String("speedup-fast", "", "fast-variant benchmark name for the head speedup gate")
	minSpeedup := fs.Float64("min-speedup", 0, "minimum head ns/op ratio slow/fast per usable CPU: the bound is this times min(CPUs, the width N in the fast variant's trailing key=N) (0 disables the speedup gate)")
	jsonOut := fs.Bool("json", false, "emit the verdicts as JSON on stdout instead of a table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseFile == "" || *headFile == "" {
		fmt.Fprintln(stderr, "benchgate: -base and -head are required")
		return 2
	}
	re, err := regexp.Compile(*pattern)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: bad -pattern: %v\n", err)
		return 2
	}

	var base, head benchfmt.Set
	err = base.ReadFile(*baseFile)
	if err == nil {
		err = head.ReadFile(*headFile)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}

	verdicts, failed := gate(base.Samples, head.Samples, re, *maxRegress, *maxAllocRegress)
	var sv *speedupVerdict
	if *minSpeedup > 0 {
		sv = speedupGate(head.Samples, *speedupSlow, *speedupFast, *minSpeedup, runtime.NumCPU())
		if sv.Failed {
			failed = true
		}
	}
	code := 0
	if failed {
		code = 1
	}
	if *jsonOut {
		report := struct {
			Pattern         string          `json:"pattern"`
			MaxRegress      float64         `json:"max_regress"`
			MaxAllocRegress float64         `json:"max_alloc_regress"`
			Failed          bool            `json:"failed"`
			Verdicts        []verdict       `json:"verdicts"`
			Speedup         *speedupVerdict `json:"speedup,omitempty"`
		}{*pattern, *maxRegress, *maxAllocRegress, failed, verdicts, sv}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		return code
	}
	if len(verdicts) == 0 {
		fmt.Fprintf(stdout, "benchgate: no benchmarks matching %q in base output; no regression to gate\n", *pattern)
	} else {
		fmt.Fprintf(stdout, "%-32s %14s %14s %8s %12s %12s %8s\n",
			"benchmark", "base ns/op", "head ns/op", "delta", "base allocs", "head allocs", "delta")
	}
	for _, v := range verdicts {
		alloc := fmt.Sprintf("%12s %12s %8s", "-", "-", "")
		if v.BaseAllocs >= 0 && v.HeadAllocs >= 0 {
			alloc = fmt.Sprintf("%12.0f %12.0f %+7.1f%%", v.BaseAllocs, v.HeadAllocs, v.AllocDelta*100)
		}
		fmt.Fprintf(stdout, "%-32s %14.0f %14.0f %+7.1f%% %s %s\n", v.Name, v.BaseNs, v.HeadNs, v.NsDelta*100, alloc, v.Mark)
	}
	if sv != nil {
		fmt.Fprintln(stdout, "benchgate:", sv.Note)
	}
	if failed {
		fmt.Fprintf(stdout, "benchgate: FAIL — regression above +%.0f%% ns/op or +%.0f%% allocs/op, or the speedup gate failed\n",
			*maxRegress*100, *maxAllocRegress*100)
		return code
	}
	fmt.Fprintln(stdout, "benchgate: ok")
	return code
}

// speedupVerdict is the head-only parallel-speedup gate's outcome: the
// fast variant of a benchmark pair must beat the slow one by at least
// Min = PerCPU × min(CPUs, width). Unlike the regression gates it
// compares head against head, so it locks an absolute property of the
// PR (the pooled campaign actually scales), not a delta against the
// base.
type speedupVerdict struct {
	Slow   string  `json:"slow"`
	Fast   string  `json:"fast"`
	PerCPU float64 `json:"per_cpu"`
	CPUs   int     `json:"cpus"`
	Min    float64 `json:"min"`
	Ratio  float64 `json:"ratio,omitempty"`
	Failed bool    `json:"failed"`
	Note   string  `json:"note"`
}

// minSpeedupFor is the speedup bound relative to the machine: perCPU
// for each CPU the fast variant can use, which is at most its parallel
// width — the N of its name's last key=N element
// (BenchmarkCampaign/pooled=8 → 8). A name without one is not capped.
func minSpeedupFor(perCPU float64, cpus int, fast string) float64 {
	if _, v, ok := strings.Cut(fast[strings.LastIndexByte(fast, '/')+1:], "="); ok {
		if width, err := strconv.Atoi(v); err == nil && width > 0 {
			cpus = min(cpus, width)
		}
	}
	return perCPU * float64(cpus)
}

// speedupGate checks head[slow].NsPerOp / head[fast].NsPerOp against
// the bound minSpeedupFor(perCPU, cpus, fast). Missing benchmarks fail:
// the pair must exist so the gate cannot be disabled by deleting its
// inputs.
func speedupGate(head map[string]benchfmt.Sample, slow, fast string, perCPU float64, cpus int) *speedupVerdict {
	bound := minSpeedupFor(perCPU, cpus, fast)
	sv := &speedupVerdict{Slow: slow, Fast: fast, PerCPU: perCPU, CPUs: cpus, Min: bound}
	s, okS := head[slow]
	f, okF := head[fast]
	switch {
	case slow == "" || fast == "":
		sv.Failed = true
		sv.Note = "speedup gate needs -speedup-slow and -speedup-fast"
	case !okS || !okF:
		sv.Failed = true
		sv.Note = fmt.Sprintf("speedup gate: head output is missing %q or %q", slow, fast)
	default:
		sv.Ratio = s.NsPerOp / f.NsPerOp
		if sv.Ratio < bound {
			sv.Failed = true
			sv.Note = fmt.Sprintf("SPEEDUP FAIL: %s/%s = %.2fx, want >= %.2fx (%.2f per CPU, %d CPUs)", slow, fast, sv.Ratio, bound, perCPU, cpus)
		} else {
			sv.Note = fmt.Sprintf("speedup %s/%s = %.2fx (>= %.2fx: %.2f per CPU, %d CPUs)", slow, fast, sv.Ratio, bound, perCPU, cpus)
		}
	}
	return sv
}

type verdict struct {
	Name       string  `json:"name"`
	BaseNs     float64 `json:"base_ns_per_op"`
	HeadNs     float64 `json:"head_ns_per_op"`
	NsDelta    float64 `json:"ns_delta"`
	BaseAllocs float64 `json:"base_allocs_per_op"` // -1 when unreported
	HeadAllocs float64 `json:"head_allocs_per_op"` // -1 when unreported
	AllocDelta float64 `json:"alloc_delta"`
	Mark       string  `json:"mark,omitempty"`
}

// gate compares every base benchmark matching re against the head run.
// A matching benchmark missing from head fails the gate (a silently
// deleted benchmark must not disable its own regression check), and so
// does a benchmark that reported allocations in base but not in head
// (dropping ReportAllocs must not disable the allocation gate).
func gate(base, head map[string]benchfmt.Sample, re *regexp.Regexp, maxRegress, maxAllocRegress float64) ([]verdict, bool) {
	var names []string
	for name := range base {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []verdict
	failed := false
	for _, name := range names {
		b := base[name]
		h, ok := head[name]
		if !ok {
			out = append(out, verdict{Name: name, BaseNs: b.NsPerOp, BaseAllocs: b.AllocsPerOp, HeadAllocs: -1, Mark: "MISSING"})
			failed = true
			continue
		}
		v := verdict{
			Name:   name,
			BaseNs: b.NsPerOp, HeadNs: h.NsPerOp, NsDelta: h.NsPerOp/b.NsPerOp - 1,
			BaseAllocs: b.AllocsPerOp, HeadAllocs: h.AllocsPerOp,
		}
		if v.NsDelta > maxRegress {
			v.Mark = "REGRESSION"
			failed = true
		}
		if maxAllocRegress >= 0 && b.AllocsPerOp >= 0 {
			switch {
			case h.AllocsPerOp < 0:
				v.Mark = "NO ALLOCS"
				failed = true
			case b.AllocsPerOp == 0:
				// A zero-alloc benchmark must stay zero-alloc: any
				// relative threshold on a zero base is meaningless.
				if h.AllocsPerOp > 0 {
					v.Mark = "ALLOC REGRESSION"
					failed = true
				}
			default:
				v.AllocDelta = h.AllocsPerOp/b.AllocsPerOp - 1
				if v.AllocDelta > maxAllocRegress {
					v.Mark = "ALLOC REGRESSION"
					failed = true
				}
			}
		}
		out = append(out, v)
	}
	return out, failed
}
