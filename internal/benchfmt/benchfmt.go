// Package benchfmt reads the text `go test -bench` prints: the goos,
// goarch, pkg and cpu header lines and one result line per benchmark
// run. Repeated runs of a benchmark (-count > 1) fold into one Sample
// holding the minimum of each metric: the minimum is the run least
// disturbed by scheduler noise on a shared machine. cmd/benchgate
// compares two such sets; cmd/bench writes one as a BENCH_*.json
// record.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Sample is one benchmark's metrics, each minimized independently
// across repeated runs. BytesPerOp and AllocsPerOp are -1 when no run
// reported them (the benchmark ran without -benchmem or ReportAllocs).
// The JSON names are those of a BENCH_*.json entry.
type Sample struct {
	// Name is the benchmark's name without its -N suffix, and Pkg the
	// import path from the pkg: line above its first run.
	Name        string  `json:"name"`
	Pkg         string  `json:"package"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Set is a parsed transcript. Benchmarks are keyed by name with the
// -<GOMAXPROCS> suffix stripped, so a name must be unique across the
// packages of one transcript.
type Set struct {
	Goos, Goarch, CPU string
	// Procs is GOMAXPROCS as read from the first result line's -N
	// suffix; 1 when that name carries none, 0 before any result.
	Procs int
	// Names lists the benchmarks in the order they first appeared.
	Names   []string
	Samples map[string]Sample

	pkg string
}

// ReadFile folds the transcript at path into s, as Read does.
func (s *Set) ReadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Read(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Read folds the transcript r into s; reading several transcripts into
// one Set takes the minima across all of them. A header line sets the
// field it names; pkg: applies to the result lines that follow it.
func (s *Set) Read(r io.Reader) error {
	if s.Samples == nil {
		s.Samples = map[string]Sample{}
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "goos":
				s.Goos = val
			case "goarch":
				s.Goarch = val
			case "cpu":
				s.CPU = val
			case "pkg":
				s.pkg = val
			}
		}
		name, procs, smp, ok := ParseLine(line)
		if !ok {
			continue
		}
		if s.Procs == 0 {
			s.Procs = procs
		}
		prev, seen := s.Samples[name]
		if !seen {
			smp.Name, smp.Pkg = name, s.pkg
			s.Samples[name] = smp
			s.Names = append(s.Names, name)
			continue
		}
		if prev.Pkg != s.pkg {
			return fmt.Errorf("benchfmt: %s appears in both %s and %s", name, prev.Pkg, s.pkg)
		}
		prev.NsPerOp = min(prev.NsPerOp, smp.NsPerOp)
		prev.BytesPerOp = minReported(prev.BytesPerOp, smp.BytesPerOp)
		prev.AllocsPerOp = minReported(prev.AllocsPerOp, smp.AllocsPerOp)
		s.Samples[name] = prev
	}
	return sc.Err()
}

// minReported is the smaller of two metrics where -1 means unreported.
func minReported(a, b float64) float64 {
	if a < 0 || (b >= 0 && b < a) {
		return b
	}
	return a
}

// SplitSuffix splits a name's trailing -N off, returning N, or 0 when
// there is none. go test appends -<GOMAXPROCS> to benchmark names when
// GOMAXPROCS is not 1 and nothing when it is, so a sub-benchmark name
// must not end in -<digits> itself: this repository's carry their
// parameters as key=N. BenchmarkCampaign/pooled=8-4 is pooled=8 at 4
// procs, and BenchmarkCampaign/pooled=8 is pooled=8 at 1.
func SplitSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	n, err := strconv.Atoi(name[i+1:])
	if i < 0 || err != nil {
		return name, 0
	}
	return name[:i], n
}

// ParseLine extracts the metrics from one `go test -bench` result
// line, e.g. "BenchmarkPipeline200-8   3   7606484 ns/op   5953128 B/op   19354 allocs/op",
// returning the name without its -N suffix and N (1 without a suffix).
// Lines that are not results report ok == false.
func ParseLine(line string) (name string, procs int, s Sample, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, Sample{}, false
	}
	s = Sample{NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			s.NsPerOp = v
		case "B/op":
			s.BytesPerOp = v
		case "allocs/op":
			s.AllocsPerOp = v
		}
	}
	if s.NsPerOp < 0 {
		return "", 0, Sample{}, false
	}
	name, procs = SplitSuffix(fields[0])
	return name, max(procs, 1), s, true
}
