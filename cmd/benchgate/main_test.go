package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

func TestGate(t *testing.T) {
	re := regexp.MustCompile(`^BenchmarkPipeline`)
	base := map[string]benchfmt.Sample{
		"BenchmarkPipeline50":  {NsPerOp: 1000, AllocsPerOp: 100},
		"BenchmarkPipeline200": {NsPerOp: 2000, AllocsPerOp: 200},
		"BenchmarkOther":       {NsPerOp: 1, AllocsPerOp: 1},
	}

	// Within tolerance (+10% ns, +5% allocs) passes; unmatched names
	// are ignored.
	head := map[string]benchfmt.Sample{
		"BenchmarkPipeline50":  {NsPerOp: 1100, AllocsPerOp: 105},
		"BenchmarkPipeline200": {NsPerOp: 1900, AllocsPerOp: 200},
		"BenchmarkOther":       {NsPerOp: 99, AllocsPerOp: 9999},
	}
	if v, failed := gate(base, head, re, 0.15, 0.10); failed || len(v) != 2 {
		t.Fatalf("tolerated regression failed the gate: %+v", v)
	}

	// +20% ns/op on one benchmark fails.
	head["BenchmarkPipeline200"] = benchfmt.Sample{NsPerOp: 2400, AllocsPerOp: 200}
	if _, failed := gate(base, head, re, 0.15, 0.10); !failed {
		t.Fatal("+20% ns/op regression passed the gate")
	}

	// +20% allocs/op with flat ns/op fails the allocation gate.
	head["BenchmarkPipeline200"] = benchfmt.Sample{NsPerOp: 2000, AllocsPerOp: 240}
	if _, failed := gate(base, head, re, 0.15, 0.10); !failed {
		t.Fatal("+20% allocs/op regression passed the gate")
	}
	// ...unless the allocation gate is disabled.
	if _, failed := gate(base, head, re, 0.15, -1); failed {
		t.Fatal("alloc regression failed the gate with the alloc gate disabled")
	}

	// Dropping allocation reporting from head fails (the gate must not
	// be disabled by removing ReportAllocs).
	head["BenchmarkPipeline200"] = benchfmt.Sample{NsPerOp: 2000, AllocsPerOp: -1}
	if _, failed := gate(base, head, re, 0.15, 0.10); !failed {
		t.Fatal("missing head allocs passed the gate")
	}
	// A base without allocation reporting gates ns/op only.
	base["BenchmarkPipeline200"] = benchfmt.Sample{NsPerOp: 2000, AllocsPerOp: -1}
	if _, failed := gate(base, head, re, 0.15, 0.10); failed {
		t.Fatal("alloc-free base failed the allocation gate")
	}
	base["BenchmarkPipeline200"] = benchfmt.Sample{NsPerOp: 2000, AllocsPerOp: 200}

	// A zero-alloc benchmark must stay zero-alloc.
	base["BenchmarkPipeline50"] = benchfmt.Sample{NsPerOp: 1000, AllocsPerOp: 0}
	head["BenchmarkPipeline50"] = benchfmt.Sample{NsPerOp: 1000, AllocsPerOp: 1}
	if _, failed := gate(base, head, re, 0.15, 0.10); !failed {
		t.Fatal("zero-alloc benchmark gaining an allocation passed the gate")
	}
	head["BenchmarkPipeline50"] = benchfmt.Sample{NsPerOp: 1000, AllocsPerOp: 0}
	head["BenchmarkPipeline200"] = benchfmt.Sample{NsPerOp: 2000, AllocsPerOp: 200}

	// A gated benchmark deleted from head fails.
	delete(head, "BenchmarkPipeline200")
	if _, failed := gate(base, head, re, 0.15, 0.10); !failed {
		t.Fatal("deleted benchmark passed the gate")
	}

	// No matching base benchmarks: nothing to gate, passes.
	if v, failed := gate(map[string]benchfmt.Sample{"BenchmarkOther": {NsPerOp: 1}}, head, re, 0.15, 0.10); failed || len(v) != 0 {
		t.Fatalf("empty base did not pass cleanly: %+v", v)
	}
}

func TestSpeedupGate(t *testing.T) {
	head := map[string]benchfmt.Sample{
		"BenchmarkCampaign/sequential": {NsPerOp: 3000, AllocsPerOp: 100},
		"BenchmarkCampaign/pooled=8":   {NsPerOp: 900, AllocsPerOp: 100},
	}
	slow, fast := "BenchmarkCampaign/sequential", "BenchmarkCampaign/pooled=8"

	// 3.33x >= 0.75 x 4 passes on a 4-CPU machine.
	sv := speedupGate(head, slow, fast, 0.75, 4)
	if sv.Failed || sv.Min != 3 || sv.Ratio < 3.3 || sv.Ratio > 3.4 {
		t.Fatalf("passing speedup failed: %+v", sv)
	}

	// Below the bound fails.
	head[fast] = benchfmt.Sample{NsPerOp: 1500, AllocsPerOp: 100}
	if sv := speedupGate(head, slow, fast, 0.75, 4); !sv.Failed {
		t.Fatalf("2x speedup passed a 3x gate: %+v", sv)
	}

	// A missing benchmark fails: the gate cannot be disabled by
	// deleting its inputs.
	delete(head, fast)
	if sv := speedupGate(head, slow, fast, 0.75, 2); !sv.Failed {
		t.Fatalf("missing fast benchmark passed: %+v", sv)
	}
	// Unset names fail loudly rather than gating nothing.
	if sv := speedupGate(head, "", "", 0.75, 8); !sv.Failed {
		t.Fatalf("empty pair passed: %+v", sv)
	}
}

// TestSpeedupGateSkipIsLoud checks the gate never skips: on a machine
// too narrow for the old fixed 3x bound it is enforced at its scaled
// bound — 1.72x passes 1.5x on 2 CPUs, 1.4x fails it — and the JSON
// verdict carries the CPU count and the bound it applied.
func TestSpeedupGateSkipIsLoud(t *testing.T) {
	head := map[string]benchfmt.Sample{
		"BenchmarkCampaign/sequential": {NsPerOp: 1720},
		"BenchmarkCampaign/pooled=8":   {NsPerOp: 1000},
	}
	slow, fast := "BenchmarkCampaign/sequential", "BenchmarkCampaign/pooled=8"
	sv := speedupGate(head, slow, fast, 0.75, 2)
	if sv.Failed || sv.Min != 1.5 {
		t.Fatalf("1.72x against the 2-CPU bound: %+v", sv)
	}
	data, err := json.Marshal(sv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cpus":2`) || !strings.Contains(string(data), `"min":1.5`) {
		t.Fatalf("JSON verdict does not report the scaled bound: %s", data)
	}
	head[fast] = benchfmt.Sample{NsPerOp: 1230}
	if sv := speedupGate(head, slow, fast, 0.75, 2); !sv.Failed {
		t.Fatalf("1.4x passed the 2-CPU bound of 1.5x: %+v", sv)
	}
}

// TestMinSpeedupFor checks the machine-relative bound: 0.75 per CPU up
// to the fast variant's width of 8 (its name's trailing =8), so a 4-CPU
// runner still needs 3x (the fixed bound this replaced), a 2-CPU runner
// 1.5x, and CPUs past the width add nothing; a name without a width is
// not capped.
func TestMinSpeedupFor(t *testing.T) {
	for _, c := range []struct {
		cpus int
		fast string
		want float64
	}{
		{1, "BenchmarkCampaign/pooled=8", 0.75},
		{2, "BenchmarkCampaign/pooled=8", 1.5},
		{4, "BenchmarkCampaign/pooled=8", 3},
		{8, "BenchmarkCampaign/pooled=8", 6},
		{64, "BenchmarkCampaign/pooled=8", 6},
		{64, "BenchmarkCampaign/pooled=2", 1.5},
		{16, "BenchmarkCampaign/pooled", 12},
	} {
		if got := minSpeedupFor(0.75, c.cpus, c.fast); got != c.want {
			t.Errorf("%s on %d CPUs: bound %v, want %v", c.fast, c.cpus, got, c.want)
		}
	}
}

// TestRunExitCode checks that a failed gate exits 1 on every path and
// in both output modes — including the one where no base benchmark
// matches -pattern, which once returned before looking at the head-only
// speedup gate — and that a passing gate exits 0.
func TestRunExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	empty := write("empty.bench", "PASS\n")
	head := write("head.bench", `pkg: repro/internal/sim
BenchmarkCampaign/sequential-4   	      10	   1200000 ns/op	  100 allocs/op
BenchmarkCampaign/pooled=8-4     	      10	   1000000 ns/op	  100 allocs/op
`)
	for _, c := range []struct {
		minSpeedup string
		want       int
	}{
		{"5", 1},    // 1.2x is below 5x per CPU on any machine
		{"0.01", 0}, // and above 0.01x per CPU on any machine
	} {
		for _, mode := range [][]string{nil, {"-json"}} {
			args := append([]string{
				"-base", empty, "-head", head,
				"-pattern", `^BenchmarkCampaign/(sequential|pooled=8)$`,
				"-speedup-slow", "BenchmarkCampaign/sequential",
				"-speedup-fast", "BenchmarkCampaign/pooled=8",
				"-min-speedup", c.minSpeedup,
			}, mode...)
			var out, errOut bytes.Buffer
			if got := run(args, &out, &errOut); got != c.want {
				t.Errorf("-min-speedup %s %v: exit %d, want %d\n%s%s", c.minSpeedup, mode, got, c.want, out.String(), errOut.String())
			}
		}
	}
}
