package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, procs, s, ok := ParseLine("BenchmarkPipeline200-8   \t       3\t   7606484 ns/op\t 5953128 B/op\t   19354 allocs/op")
	if !ok || name != "BenchmarkPipeline200" || procs != 8 || s.NsPerOp != 7606484 || s.BytesPerOp != 5953128 || s.AllocsPerOp != 19354 {
		t.Fatalf("got (%q, %d, %+v, %v)", name, procs, s, ok)
	}
	if _, _, _, ok := ParseLine("goos: linux"); ok {
		t.Error("header line parsed as a benchmark")
	}
	if _, _, _, ok := ParseLine("ok  \trepro/internal/benchkit\t8.014s"); ok {
		t.Error("trailer line parsed as a benchmark")
	}
	// Sub-benchmark names and fractional ns/op survive; a line without
	// allocation reporting marks allocs as unreported.
	name, _, s, ok = ParseLine("BenchmarkCampaign/pooled-4-8  5  583.5 ns/op")
	if !ok || name != "BenchmarkCampaign/pooled-4" || s.NsPerOp != 583.5 || s.AllocsPerOp != -1 {
		t.Fatalf("got (%q, %+v, %v)", name, s, ok)
	}
}

func TestParseFileMinimizesPerMetric(t *testing.T) {
	path := filepath.Join(t.TempDir(), "head.bench")
	data := "goos: linux\n" +
		"BenchmarkPipeline50-8  10  120 ns/op  900 B/op  11 allocs/op\n" +
		"BenchmarkPipeline50-8  10  100 ns/op  950 B/op  12 allocs/op\n" +
		"BenchmarkPipeline50-8  10  110 ns/op\n" +
		"ok  \trepro/internal/benchkit\t8.014s\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var out Set
	if err := out.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if got := out.Samples["BenchmarkPipeline50"]; got.NsPerOp != 100 || got.AllocsPerOp != 11 {
		t.Fatalf("per-metric minimum not kept: %+v", got)
	}
}

// TestReadTwoPackageTranscript reads what `go test -bench -benchmem
// -count 2` prints over two packages: the header comes from the first
// package's lines, each result keeps its own package, every metric is
// the minimum of its two runs (B/op from one run, ns/op from the
// other), and a sub-benchmark whose own name ends in a number loses
// only the GOMAXPROCS suffix.
func TestReadTwoPackageTranscript(t *testing.T) {
	transcript := `goos: linux
goarch: amd64
pkg: repro/internal/exec
cpu: Intel(R) Xeon(R) Processor
BenchmarkExecute-8   	  150000	      8130 ns/op	    3248 B/op	      11 allocs/op
BenchmarkExecute-8   	  150000	      8090 ns/op	    3250 B/op	      11 allocs/op
PASS
ok  	repro/internal/exec	3.1s
goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor
BenchmarkCampaign/sequential-8         	     358	   3337939 ns/op	  931628 B/op	    4456 allocs/op
BenchmarkCampaign/sequential-8         	     350	   3401000 ns/op	  931600 B/op	    4457 allocs/op
BenchmarkCampaign/pooled-4-8           	     600	   2042791 ns/op	 1209421 B/op	    4565 allocs/op
BenchmarkCampaign/pooled-4-8           	     600	   2100000 ns/op	 1209400 B/op	    4565 allocs/op
PASS
ok  	repro/internal/sim	9.0s
`
	var s Set
	if err := s.Read(strings.NewReader(transcript)); err != nil {
		t.Fatal(err)
	}
	if s.Goos != "linux" || s.Goarch != "amd64" || s.CPU != "Intel(R) Xeon(R) Processor" || s.Procs != 8 {
		t.Fatalf("header: %+v", s)
	}
	want := []struct {
		name, pkg         string
		ns, bytes, allocs float64
	}{
		{"BenchmarkExecute", "repro/internal/exec", 8090, 3248, 11},
		{"BenchmarkCampaign/sequential", "repro/internal/sim", 3337939, 931600, 4456},
		{"BenchmarkCampaign/pooled-4", "repro/internal/sim", 2042791, 1209400, 4565},
	}
	if len(s.Names) != len(want) {
		t.Fatalf("names %q, want %d", s.Names, len(want))
	}
	for i, w := range want {
		got := s.Samples[s.Names[i]]
		if s.Names[i] != w.name || got.Name != w.name || got.Pkg != w.pkg || got.NsPerOp != w.ns || got.BytesPerOp != w.bytes || got.AllocsPerOp != w.allocs {
			t.Errorf("entry %d: %s %+v, want %+v", i, s.Names[i], got, w)
		}
	}

	// A name seen under a second package would fold two different
	// benchmarks into one entry.
	dup := "pkg: repro/a\nBenchmarkX-8 1 10 ns/op\npkg: repro/b\nBenchmarkX-8 1 10 ns/op\n"
	if err := new(Set).Read(strings.NewReader(dup)); err == nil {
		t.Error("a name shared by two packages was accepted")
	}
}

// TestKeyValueNamesAtAnyCPU parses a key=value sub-benchmark as go test
// prints it under -cpu 1 (no suffix) and -cpu 4 (-4): both give the
// same name, with the right GOMAXPROCS, and fold into one sample.
func TestKeyValueNamesAtAnyCPU(t *testing.T) {
	for _, c := range []struct {
		line  string
		procs int
	}{
		{"BenchmarkCampaign/pooled=8     \t      10\t   1200000 ns/op\t  4400 allocs/op", 1},
		{"BenchmarkCampaign/pooled=8-4   \t      10\t   1100000 ns/op\t  4500 allocs/op", 4},
	} {
		name, procs, _, ok := ParseLine(c.line)
		if !ok || name != "BenchmarkCampaign/pooled=8" || procs != c.procs {
			t.Errorf("%q: got (%q, %d, %v), want (BenchmarkCampaign/pooled=8, %d)", c.line, name, procs, ok, c.procs)
		}
	}
	var s Set
	if err := s.Read(strings.NewReader("BenchmarkCampaign/pooled=8   10   1200000 ns/op   4400 allocs/op\n" +
		"BenchmarkCampaign/pooled=8-4   10   1100000 ns/op   4500 allocs/op\n")); err != nil {
		t.Fatal(err)
	}
	if got := s.Samples["BenchmarkCampaign/pooled=8"]; len(s.Names) != 1 || got.NsPerOp != 1100000 || got.AllocsPerOp != 4400 || s.Procs != 1 {
		t.Fatalf("names %v, sample %+v, procs %d", s.Names, got, s.Procs)
	}
}
