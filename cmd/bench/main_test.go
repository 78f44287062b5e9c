package main

import (
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

func TestBuildRecord(t *testing.T) {
	read := func(text string) *benchfmt.Set {
		var s benchfmt.Set
		if err := s.Read(strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
		return &s
	}
	rec, err := build(read(`goos: linux
goarch: amd64
pkg: repro/internal/benchkit
cpu: Intel(R) Xeon(R) Processor
BenchmarkPipeline50-4   100   228377 ns/op   117609 B/op   135 allocs/op
BenchmarkPipeline50-4   100   211506 ns/op   117610 B/op   135 allocs/op
BenchmarkStoreGet-4   600000   1933.5 ns/op   2070 B/op   2 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Goos != "linux" || rec.Goarch != "amd64" || rec.CPU != "Intel(R) Xeon(R) Processor" || rec.GOMAXPROCS != 4 {
		t.Fatalf("header: %+v", rec)
	}
	want := []benchfmt.Sample{
		{Name: "BenchmarkPipeline50", Pkg: "repro/internal/benchkit", NsPerOp: 211506, BytesPerOp: 117609, AllocsPerOp: 135},
		{Name: "BenchmarkStoreGet", Pkg: "repro/internal/benchkit", NsPerOp: 1933.5, BytesPerOp: 2070, AllocsPerOp: 2},
	}
	if len(rec.Benchmarks) != len(want) {
		t.Fatalf("entries %+v", rec.Benchmarks)
	}
	for i, w := range want {
		if rec.Benchmarks[i] != w {
			t.Errorf("entry %d: %+v, want %+v", i, rec.Benchmarks[i], w)
		}
	}

	// A record must carry allocations and packages, and must not be
	// empty.
	if _, err := build(read("pkg: repro/internal/benchkit\nBenchmarkPipeline50-4  100  228377 ns/op\n")); err == nil {
		t.Error("a run without -benchmem was recorded")
	}
	if _, err := build(read("BenchmarkPipeline50-4  100  228377 ns/op  117609 B/op  135 allocs/op\n")); err == nil {
		t.Error("a result without a package was recorded")
	}
	if _, err := build(read("PASS\n")); err == nil {
		t.Error("an input without results was recorded")
	}
}
