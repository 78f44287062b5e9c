// Command bench runs the repository's microbenchmark ladders and
// emits a machine-readable record. The default mode measures the
// scheduler core over the benchkit instance ladder; -sim switches to
// the Monte-Carlo simulation layer (single-iteration replay plus the
// campaign ladder: 16/256/4096 runs, sequential vs pooled-8 vs
// 2-shard). The committed records are regenerated with:
//
//	go run ./cmd/bench -out BENCH_sched.json
//	go run ./cmd/bench -sim -out BENCH_sim.json
//
// Each size measures the full pipeline on the incremental scheduler
// core (power profile kept as a breakpoint reference plus a moved-task
// overlay, slack cached with dirty-set invalidation).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/store"
)

type record struct {
	Comment    string  `json:"comment"`
	Date       string  `json:"date"`
	Goos       string  `json:"goos"`
	Goarch     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Benchmarks []entry `json:"benchmarks"`
}

type entry struct {
	Name        string `json:"name"`
	Package     string `json:"package"`
	Description string `json:"description"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

func main() {
	out := flag.String("out", "-", "output path, or - for stdout")
	sizes := flag.String("sizes", "", "comma-separated instance sizes (default: the full benchkit ladder)")
	restarts := flag.Bool("restarts", true, "also measure the restart portfolio (sequential and parallel) on the 50-task instance")
	machines := flag.Bool("machines", true, "also measure the heterogeneous (4-machine, DVS) 50-task instance")
	serving := flag.Bool("serving", true, "also measure the serving tier (warm batch dispatch, persistent-store reads)")
	simMode := flag.Bool("sim", false, "measure the Monte-Carlo simulation layer (replay, campaign ladder) instead of the scheduler core")
	flag.Parse()

	ns := benchkit.Sizes
	if *sizes != "" {
		ns = nil
		for _, f := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bench: bad size %q\n", f)
				os.Exit(2)
			}
			ns = append(ns, n)
		}
	}

	rec := record{
		Comment: "Scheduler-core benchmark record over the benchkit instance ladder. " +
			"Regenerate with: go run ./cmd/bench -out BENCH_sched.json",
		Date:       time.Now().Format("2006-01-02"),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if *simMode {
		rec.Comment = "Benchmark record for the Monte-Carlo simulation layer: single-iteration " +
			"replay plus the campaign ladder (16/256/4096 runs; sequential vs pooled-8 vs 2-shard). " +
			"Regenerate with: go run ./cmd/bench -sim -out BENCH_sim.json"
		rec.Benchmarks = simBenchmarks()
		writeRecord(*out, rec)
		return
	}
	for _, n := range ns {
		rec.Benchmarks = append(rec.Benchmarks, measure(n))
	}
	if *restarts {
		for _, cfg := range []struct{ restarts, workers int }{
			{8, 1}, {8, 8}, {32, 1}, {32, 8},
		} {
			rec.Benchmarks = append(rec.Benchmarks, measureRestarts(cfg.restarts, cfg.workers))
		}
	}
	if *machines {
		rec.Benchmarks = append(rec.Benchmarks, measureMachines(50, 4))
	}
	if *serving {
		rec.Benchmarks = append(rec.Benchmarks, measureServiceBatch())
		rec.Benchmarks = append(rec.Benchmarks, measureStoreGet())
	}

	writeRecord(*out, rec)
}

func writeRecord(out string, rec record) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// measure runs the full three-stage pipeline (with compaction) on the
// ladder instance of the given size, mirroring BenchmarkPipeline* in
// internal/benchkit.
func measure(n int) entry {
	p := benchkit.Generate(n, 1)
	opts := benchkit.Options(n)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.MinPower(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	name := fmt.Sprintf("BenchmarkPipeline%d", n)
	desc := fmt.Sprintf("full pipeline on the %d-task ladder instance, incremental core", n)
	fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %12d B/op %8d allocs/op\n",
		name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
	return entry{
		Name:        name,
		Package:     "repro/internal/benchkit",
		Description: desc,
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// measureRestarts runs the restart portfolio on the 50-task ladder
// instance, mirroring BenchmarkPipelineRestarts* in internal/benchkit.
func measureRestarts(restarts, workers int) entry {
	p := benchkit.Generate(50, 1)
	opts := benchkit.Options(50)
	opts.Restarts = restarts
	opts.Workers = workers
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.MinPower(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	name := fmt.Sprintf("BenchmarkPipelineRestarts%d", restarts)
	desc := fmt.Sprintf("%d-restart portfolio on the 50-task ladder instance, sequential (Workers=1)", restarts)
	if workers > 1 {
		name += "Par"
		desc = fmt.Sprintf("%d-restart portfolio on the 50-task ladder instance, parallel (Workers=%d)", restarts, workers)
	}
	fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %12d B/op %8d allocs/op\n",
		name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
	return entry{
		Name:        name,
		Package:     "repro/internal/benchkit",
		Description: desc,
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// measureMachines runs the heterogeneous ladder instance (m machines,
// DVS levels on every third task), mirroring BenchmarkPipelineMachines4
// in internal/benchkit.
func measureMachines(n, m int) entry {
	p := benchkit.GenerateMachines(n, m, 1)
	opts := benchkit.Options(n)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sched.MinPower(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	name := fmt.Sprintf("BenchmarkPipelineMachines%d", m)
	desc := fmt.Sprintf("full pipeline on the %d-task ladder instance with %d machines and DVS levels (heterogeneous choice loop)", n, m)
	fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %12d B/op %8d allocs/op\n",
		name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
	return entry{
		Name:        name,
		Package:     "repro/internal/benchkit",
		Description: desc,
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// measureServiceBatch runs the serving tier's warm bulk path — one
// ScheduleBatchCtx pass of 64 requests over 16 cached problems —
// mirroring BenchmarkServiceBatch in internal/benchkit.
func measureServiceBatch() entry {
	svc := service.New(service.Config{})
	base := make([]service.Request, 16)
	for i := range base {
		p := benchkit.Generate(10, 1).Clone()
		p.Name = fmt.Sprintf("svcbatch-%02d", i)
		base[i] = service.Request{Problem: p, Opts: benchkit.Options(10), Stage: service.StageMinPower}
	}
	reqs := make([]service.Request, 64)
	for i := range reqs {
		reqs[i] = base[i%len(base)]
	}
	ctx := context.Background()
	for _, r := range svc.ScheduleBatchCtx(ctx, reqs) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", r.Err)
			os.Exit(1)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range svc.ScheduleBatchCtx(ctx, reqs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
	name := "BenchmarkServiceBatch"
	fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %12d B/op %8d allocs/op\n",
		name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
	return entry{
		Name:        name,
		Package:     "repro/internal/benchkit",
		Description: "one warm ScheduleBatchCtx pass of 64 requests over 16 cached problems (batch dispatch overhead, no compute)",
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// measureStoreGet runs a point read from the persistent result store
// over 1024 ~2KiB records, mirroring BenchmarkStoreGet in
// internal/benchkit.
func measureStoreGet() entry {
	dir, err := os.MkdirTemp("", "bench-store")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "bench.log"), store.Options{NoAutoCompact: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	defer st.Close()
	val := make([]byte, 2048)
	for i := range val {
		val[i] = byte(i)
	}
	const n = 1024
	for i := 0; i < n; i++ {
		if err := st.Put(fmt.Sprintf("sr1/key-%04d", i), val); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := st.Get(fmt.Sprintf("sr1/key-%04d", i%n)); !ok {
				b.Fatal("miss")
			}
		}
	})
	name := "BenchmarkStoreGet"
	fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %12d B/op %8d allocs/op\n",
		name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
	return entry{
		Name:        name,
		Package:     "repro/internal/benchkit",
		Description: "point read from the persistent result store with a populated index (1024 records of ~2KiB)",
		NsPerOp:     res.NsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// cpuModel reads the CPU model name for the record header; best
// effort, matching the hand-recorded field in BENCH_sim.json.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
