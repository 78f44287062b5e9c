package benchkit

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// TestGenerateDeterministic: the same (n, seed) yields the same
// problem; consecutive seeds differ.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(50, 1), Generate(50, 1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same (n, seed) produced different problems")
	}
	if a.Fingerprint() == Generate(50, 2).Fingerprint() {
		t.Fatal("different seeds produced the same problem")
	}
}

// TestGenerateSchedulable: every ladder instance is feasible under the
// benchmark options, produces a valid schedule, and actually exercises
// the power stages (spikes were fixed, the budget binds). The scale
// tier (n > 1000, ~10-90s per instance) only runs when
// BENCH_FULL_LADDER is set — the nightly benchmark job sets it; the
// tier-1 suite stays fast.
func TestGenerateSchedulable(t *testing.T) {
	for _, n := range Sizes {
		if testing.Short() && n > 200 {
			continue
		}
		if n > ScaleTier && os.Getenv("BENCH_FULL_LADDER") == "" {
			continue
		}
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			p := Generate(n, 1)
			r, err := sched.MinPower(p, Options(n))
			if err != nil {
				t.Fatalf("n=%d infeasible: %v", n, err)
			}
			if err := schedule.CheckTimeValid(r.Graph, r.Compiled, r.Schedule); err != nil {
				t.Fatal(err)
			}
			if !r.Profile.Valid(p.Pmax) {
				t.Fatalf("n=%d: spikes remain: %v", n, r.Profile.Spikes(p.Pmax))
			}
			if r.Stats.SpikeRounds == 0 {
				t.Fatalf("n=%d: max-power stage did no work (budget not binding)", n)
			}
		})
	}
}

// TestGenerateMachinesSchedulable: the heterogeneous ladder instance
// is feasible under the benchmark options and yields a valid assigned
// schedule with every machine actually used.
func TestGenerateMachinesSchedulable(t *testing.T) {
	p := GenerateMachines(50, 4, 1)
	r, err := sched.MinPower(p, Options(50))
	if err != nil {
		t.Fatalf("hetero instance infeasible: %v", err)
	}
	if rep := verify.CheckAssigned(p, r.Schedule, r.Assignment); !rep.OK() {
		t.Fatal(rep.Err())
	}
	used := map[int]bool{}
	for _, c := range r.Assignment {
		used[c.Machine] = true
	}
	if len(used) < 2 {
		t.Fatalf("only %d machine(s) used; the instance does not exercise the assignment dimension", len(used))
	}
}

// benchmarkPipeline measures the full three-stage pipeline (with
// compaction) on the ladder instance of the given size.
func benchmarkPipeline(b *testing.B, n int) {
	p := Generate(n, 1)
	opts := Options(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.MinPower(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineMachines4 runs the 50-task ladder instance with 4
// machines and DVS levels: the cost of the heterogeneous choice loop
// (machine serialization edges, EFT choice ordering, assignment
// bookkeeping) against BenchmarkPipeline50's degenerate single-choice
// path on the same underlying DAG.
func BenchmarkPipelineMachines4(b *testing.B) {
	p := GenerateMachines(50, 4, 1)
	opts := Options(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.MinPower(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeline10(b *testing.B)   { benchmarkPipeline(b, 10) }
func BenchmarkPipeline50(b *testing.B)   { benchmarkPipeline(b, 50) }
func BenchmarkPipeline200(b *testing.B)  { benchmarkPipeline(b, 200) }
func BenchmarkPipeline1000(b *testing.B) { benchmarkPipeline(b, 1000) }

// The scale tier: ~0.4s (5000) and ~1.5s (10000) per op, so a single
// iteration is already a stable measurement. Skipped under -short; the
// PR bench gate runs them at -count 2, the nightly job in the full
// ladder.
func BenchmarkPipeline5000(b *testing.B)  { benchmarkPipelineScale(b, 5000) }
func BenchmarkPipeline10000(b *testing.B) { benchmarkPipelineScale(b, 10000) }

func benchmarkPipelineScale(b *testing.B, n int) {
	if testing.Short() {
		b.Skipf("n=%d is scale-tier; skipped under -short", n)
	}
	benchmarkPipeline(b, n)
}

// BenchmarkPipelineCtx50 runs the n=50 instance through the
// context-aware entry point with a live (cancelable, never-fired)
// context: the cost of the cooperative cancellation polls relative to
// BenchmarkPipeline50, which takes the Background fast path.
func BenchmarkPipelineCtx50(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := Generate(50, 1)
	opts := Options(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.MinPowerCtx(ctx, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkPipelineRestarts measures the restart portfolio on the
// 50-task ladder instance with the given fan-out. The Workers=1 and
// Workers=8 variants produce byte-identical schedules (the reduction is
// a total order ending in the restart index); only wall-clock differs.
func benchmarkPipelineRestarts(b *testing.B, restarts, workers int) {
	p := Generate(50, 1)
	opts := Options(50)
	opts.Restarts = restarts
	opts.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.MinPower(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRestarts8(b *testing.B)     { benchmarkPipelineRestarts(b, 8, 1) }
func BenchmarkPipelineRestarts32(b *testing.B)    { benchmarkPipelineRestarts(b, 32, 1) }
func BenchmarkPipelineRestarts8Par(b *testing.B)  { benchmarkPipelineRestarts(b, 8, 8) }
func BenchmarkPipelineRestarts32Par(b *testing.B) { benchmarkPipelineRestarts(b, 32, 8) }
