// Command bench turns `go test -bench -benchmem` output into a
// BENCH_*.json record: one entry per benchmark holding the minimum of
// each metric over its repeated runs, under a header naming the host.
// It reads the files named as arguments, or stdin when there are none.
// scripts/bench_record.sh holds the benchmark selection of each
// committed record and regenerates it:
//
//	bash scripts/bench_record.sh sched   # BENCH_sched.json
//	bash scripts/bench_record.sh sim     # BENCH_sim.json
//
// goos, goarch, the CPU model and GOMAXPROCS come from the transcript
// (the header lines and the names' -N suffix); the CPU count is the
// recording process's own, so record on the host that ran the
// benchmarks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/benchfmt"
)

type record struct {
	Comment    string            `json:"comment"`
	Date       string            `json:"date"`
	Goos       string            `json:"goos"`
	Goarch     string            `json:"goarch"`
	CPU        string            `json:"cpu"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks []benchfmt.Sample `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "-", "output path, or - for stdout")
	flag.Parse()
	if err := run(flag.Args(), *out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(inputs []string, out string) error {
	var set benchfmt.Set
	if len(inputs) == 0 {
		if err := set.Read(os.Stdin); err != nil {
			return fmt.Errorf("stdin: %w", err)
		}
	}
	for _, path := range inputs {
		if err := set.ReadFile(path); err != nil {
			return err
		}
	}
	rec, err := build(&set)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// build turns a parsed transcript into a record. Every entry must
// carry its package and all three metrics: a record without
// allocations cannot back an allocation claim.
func build(set *benchfmt.Set) (record, error) {
	if len(set.Names) == 0 {
		return record{}, fmt.Errorf("no benchmark results in the input")
	}
	rec := record{
		Comment:    "Per-metric minima over repeated go test -bench -benchmem runs; regenerate with scripts/bench_record.sh.",
		Date:       time.Now().Format("2006-01-02"),
		Goos:       set.Goos,
		Goarch:     set.Goarch,
		CPU:        set.CPU,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: set.Procs,
	}
	for _, name := range set.Names {
		s := set.Samples[name]
		if s.BytesPerOp < 0 || s.AllocsPerOp < 0 {
			return record{}, fmt.Errorf("%s reports no B/op or allocs/op (run go test with -benchmem)", name)
		}
		if s.Pkg == "" {
			return record{}, fmt.Errorf("%s has no pkg: line above it", name)
		}
		rec.Benchmarks = append(rec.Benchmarks, s)
	}
	return rec, nil
}
