// Command benchmark is the repository's end-to-end benchmark. It drives
// the scheduler's layers through their public packages, from outside,
// on five workloads:
//
//	solve-large      closed loop: the full pipeline on 500-1000-task problems
//	solve-portfolio  closed loop: 50-task problems with a 32-restart portfolio
//	serve-hot        open loop: Zipf reads through a router and two shards
//	serve-churn      open loop: reads, cold computes and uploads over a store
//	campaign         closed loop: 1024-run fault-injection campaigns
//
// Usage:
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	benchmark [-seed n] [-seconds s]     all five, each in its own process
//	benchmark -repeat N [-workload name] N seeds per workload, with spreads
//
// A single-workload run prints comment lines (a header with the host
// and calibration, then details) and, last, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced, the metrics
// are the end-to-end ones; with -trace 1 they are the per-layer ones,
// and the recorded spans go to -trace-file. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the measuring window BENCHMARK.json declares.
const defaultSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	traceFile string
	repeat    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "workload to run; empty runs all five, each in its own process")
	fs.Int64Var(&opt.seed, "seed", 1, "seed that generates every input")
	fs.IntVar(&opt.seconds, "seconds", defaultSeconds, "measuring window of one workload run, in seconds")
	fs.IntVar(&opt.trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	fs.StringVar(&opt.traceFile, "trace-file", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.json)")
	fs.IntVar(&opt.repeat, "repeat", 0, "run each workload this many times, seeds seed, seed+1, ..., and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) || opt.repeat < 0 {
		fmt.Fprintln(stderr, "benchmark: want -seconds >= 1, -trace 0 or 1, -repeat >= 0 and no arguments")
		return 2
	}
	if opt.workload != "" {
		if _, ok := findWorkload(opt.workload); !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", opt.workload)
			return 2
		}
	}
	switch {
	case opt.repeat > 0:
		return repeatRuns(opt, stdout, stderr)
	case opt.workload == "":
		return runAll(opt, stdout, stderr)
	}
	return runOne(opt, stdout, stderr)
}

// runOne runs one workload in this process and prints its result line.
func runOne(opt options, stdout, stderr io.Writer) int {
	w, _ := findWorkload(opt.workload)
	e := &env{
		seed:   opt.seed,
		window: time.Duration(opt.seconds) * time.Second,
		out:    stdout,
		dir:    filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d-%d", w.name, opt.seed, os.Getpid())),
	}
	if opt.trace == 1 {
		e.rec = newRecorder()
	}
	printHeader(stdout, opt, []workload{w})
	before := hostSpeed()
	o, err := w.run(context.Background(), e)
	e.logf("host speed: %.0f before, %.0f after (SHA-256 of 64 KiB per second, one goroutine)", before, hostSpeed())
	os.RemoveAll(e.dir)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res := finish(e, o)
	if e.rec != nil {
		path := opt.traceFile
		if path == "" {
			path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", w.name, opt.seed))
		}
		meta := map[string]any{"workload": w.name, "seed": opt.seed, "seconds": opt.seconds}
		if err := e.rec.write(path, meta); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		e.logf("spans: %s", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// host describes the machine and build a run measured.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Revision: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Revision != "unknown" {
			h.Revision += "+modified"
		}
	}
	return h
}

// hostSpeed times a fixed single-threaded kernel for 200 ms. The host
// is shared, and its speed drifts by a tenth or more over minutes; the
// reading before and after each run shows how fast the host was while
// it measured.
func hostSpeed() float64 {
	buf := make([]byte, 64<<10)
	n := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		sha256.Sum256(buf)
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// calibration describes each workload's fixed rates and durations.
func calibration(opt options, ws []workload) map[string]string {
	e := &env{window: time.Duration(opt.seconds) * time.Second}
	out := make(map[string]string, len(ws))
	for _, w := range ws {
		out[w.name] = w.cal(e)
	}
	return out
}

func printHeader(out io.Writer, opt options, ws []workload) {
	h := hostInfo()
	fmt.Fprintf(out, "# benchmark: workload=%s seed=%d seconds=%d trace=%d\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(out, "# host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s revision=%s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Revision)
	cal := calibration(opt, ws)
	for _, w := range ws {
		fmt.Fprintf(out, "# workload %s: %s\n", w.name, w.why)
		fmt.Fprintf(out, "# calibration %s: %s\n", w.name, cal[w.name])
	}
}

// child runs one workload in a child process, so its peak RSS and GC
// state are its own, and returns the child's result line. The child's
// comment lines are copied to log.
func child(opt options, name string, seed int64, log io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(opt.seconds), "-trace", strconv.Itoa(opt.trace)}
	if opt.trace == 1 && opt.traceFile != "" {
		ext := filepath.Ext(opt.traceFile)
		args = append(args, "-trace-file", fmt.Sprintf("%s-%s-%d%s", strings.TrimSuffix(opt.traceFile, ext), name, seed, ext))
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "{") {
			last = line
		} else if !strings.HasPrefix(line, "# benchmark:") && !strings.HasPrefix(line, "# host:") &&
			!strings.HasPrefix(line, "# workload ") && !strings.HasPrefix(line, "# calibration ") {
			fmt.Fprintf(log, "# [%s seed %d] %s\n", name, seed, strings.TrimPrefix(line, "# "))
		}
	}
	var res result
	if last == "" {
		return res, fmt.Errorf("%s seed %d printed no result: %v", name, seed, runErr)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return res, nil
}

// runAll runs every workload once and prints one JSON document with all
// their results.
func runAll(opt options, stdout, stderr io.Writer) int {
	printHeader(stdout, opt, workloads)
	doc := struct {
		Host        host              `json:"host"`
		Seed        int64             `json:"seed"`
		Seconds     int               `json:"seconds"`
		Trace       int               `json:"trace"`
		Calibration map[string]string `json:"calibration"`
		Correct     bool              `json:"correct"`
		Workloads   map[string]result `json:"workloads"`
	}{hostInfo(), opt.seed, opt.seconds, opt.trace, calibration(opt, workloads), true, map[string]result{}}
	code := 0
	for _, w := range workloads {
		res, err := child(opt, w.name, opt.seed, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			doc.Correct, code = false, 1
			continue
		}
		doc.Workloads[w.name] = res
		if !res.Correct {
			doc.Correct, code = false, 1
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return code
}

// spreadStat summarizes one metric across repeated runs. Spread is the
// interquartile range over the median, the figure a metric's bound is
// set against; range is (max-min)/median.
type spreadStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Range  float64 `json:"range"`
	Bound  float64 `json:"bound,omitempty"`
}

// repeatRuns runs each selected workload opt.repeat times with
// successive seeds and prints every metric's median, quartiles and
// spreads, flagging an end-to-end metric whose spread is not below a
// third of its bound.
func repeatRuns(opt options, stdout, stderr io.Writer) int {
	ws := workloads
	if opt.workload != "" {
		w, _ := findWorkload(opt.workload)
		ws = []workload{w}
	}
	printHeader(stdout, opt, ws)
	bounds := map[string]float64{}
	for _, m := range endToEnd {
		bounds[m.name] = m.bound
	}
	report := map[string]map[string]spreadStat{}
	code := 0
	for _, w := range ws {
		vals := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < opt.repeat; i++ {
			res, err := child(opt, w.name, opt.seed+int64(i), stdout)
			if err == nil && !res.Correct {
				err = errors.New("incorrect result")
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.name, opt.seed+int64(i), err)
				code = 1
				continue
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
		}
		report[w.name] = map[string]spreadStat{}
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			xs := vals[name]
			q := quartiles(xs)
			s := sorted(xs)
			st := spreadStat{Unit: units[name], Median: q[1], Q1: q[0], Q3: q[2], Bound: bounds[name]}
			if q[1] != 0 {
				st.Spread = (q[2] - q[0]) / q[1]
				st.Range = (s[len(s)-1] - s[0]) / q[1]
			}
			report[w.name][name] = st
			verdict := ""
			if st.Bound > 0 && name != "setup_s" {
				verdict = "ok"
				if st.Spread >= st.Bound/3 {
					verdict = "WIDE"
				}
			}
			fmt.Fprintf(stdout, "# %-16s %-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f range %.4f bound %.2f %s\n",
				w.name, name, st.Median, st.Q1, st.Q3, st.Spread, st.Range, st.Bound, verdict)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return code
}
