package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const (
	spec9   = "../../testdata/example9.spec"
	hetero9 = "../../testdata/hetero9.spec"
)

// TestGolden drives every subcommand and the default path through run
// and compares stdout followed by stderr with testdata/<name>.golden.
// An argument's $TMP is a temporary directory holding a schedule of
// example9, hetero9's resolved spec and schedule, and a rover library;
// output paths show it as $TMP again. Regenerate the goldens with
// `go test ./cmd/impacct -update`.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-format", "json", "-o", dir + "/example9.json", spec9},
		{"-format", "spec", "-o", dir + "/hetero9-resolved.spec", hetero9},
		{"-format", "json", "-o", dir + "/hetero9.json", hetero9},
		{"library", "build", "-o", dir + "/rover.lib"},
	} {
		var stderr bytes.Buffer
		if code := run(args, nil, io.Discard, &stderr); code != 0 {
			t.Fatalf("impacct %s: exit %d: %s", strings.Join(args, " "), code, &stderr)
		}
	}
	cases := []struct {
		golden string
		args   []string
		stdin  string
		code   int
	}{
		{"rover", []string{"rover"}, "", 0},
		{"rover-gantt", []string{"rover", "-gantt"}, "", 0},
		{"rover-no-preheat", []string{"rover", "-preheat=false"}, "", 0},
		{"mission", []string{"mission"}, "", 0},
		{"mission-scenario", []string{"mission", "-scenario", "../../testdata/paper.scenario"}, "", 0},
		{"mission-battery", []string{"mission", "-battery", "5000"}, "", 0},
		{"report", []string{"report"}, "", 0},
		{"ablate", []string{"ablate", spec9}, "", 0},
		{"sweep", []string{"sweep", "-pmax", "12,16,20", spec9}, "", 0},
		{"metrics", []string{"-format", "metrics", spec9}, "", 0},
		{"usage", nil, "", 2},
		{"gen", []string{"gen"}, "", 0},
		{"gen-tasks40", []string{"gen", "-tasks", "40", "-seed", "7"}, "", 0},
		{"validate", []string{"validate", spec9, "$TMP/example9.json"}, "", 0},
		{"validate-violating", []string{"validate", spec9, "testdata/example9-violating.json"}, "", 1},
		{"validate-hetero9-resolved", []string{"validate", "$TMP/hetero9-resolved.spec", "$TMP/hetero9.json"}, "", 0},
		{"library-build", []string{"library", "build", "-o", "$TMP/out.lib", spec9}, "", 0},
		{"library-show", []string{"library", "show", "$TMP/rover.lib"}, "", 0},
		{"library-select", []string{"library", "select", "-solar", "12", "$TMP/rover.lib"}, "", 0},
		{"simulate-json", []string{"simulate", "-json", "-n", "20"}, "", 0},
		{"simulate", []string{"simulate", "-n", "20"}, "", 0},
		{"simulate-below-min-survival", []string{"simulate", "-n", "5", "-min-survival", "1.1"}, "", 1},
		// One session per behaviour of the edit loop.
		{"edit-show-metrics", []string{"edit", spec9}, "show\nmetrics\nquit\n", 0},
		{"edit-tasks", []string{"edit", spec9}, "lock h\ntasks\nquit\n", 0},
		{"edit-undo", []string{"edit", spec9}, "drag d 7\nundo\nredo\nquit\n", 0},
		{"edit-errors", []string{"edit", spec9}, "move nosuch 3\nmove d -1\nbogus\nundo\nmetrics\nquit\n", 0},
		{"edit-reschedule", []string{"edit", spec9}, "lock h\nreschedule\nunlock h\ngaps\nquit\n", 0},
		{"edit-comments", []string{"edit", spec9}, "# a comment\n\nmetrics\nquit\n", 0},
		{"edit-eof", []string{"edit", spec9}, "metrics\n", 0},
		{"edit-help", []string{"edit", spec9}, "help\nquit\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			args := slices.Clone(tc.args)
			for i := range args {
				args[i] = strings.ReplaceAll(args[i], "$TMP", dir)
			}
			var stdout, stderr bytes.Buffer
			code := run(args, strings.NewReader(tc.stdin), &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("impacct %s: exit %d, want %d; stderr:\n%s", strings.Join(tc.args, " "), code, tc.code, &stderr)
			}
			got := bytes.ReplaceAll(append(stdout.Bytes(), stderr.Bytes()...), []byte(dir), []byte("$TMP"))
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/impacct -update`)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("impacct %s differs from %s:\n--- got\n%s--- want\n%s", strings.Join(tc.args, " "), path, got, want)
			}
		})
	}
}

// TestExitCodes: usage errors exit 2 and failures 1, validate exits 1
// on violations and 2 on unreadable input, non-finite numbers are
// refused, and a spec path spelled like a subcommand still reaches the
// default path.
func TestExitCodes(t *testing.T) {
	lib := filepath.Join(t.TempDir(), "rover.lib")
	if code := run([]string{"library", "build", "-o", lib}, nil, io.Discard, io.Discard); code != 0 {
		t.Fatalf("library build: exit %d", code)
	}
	for _, tc := range []struct {
		args  []string
		stdin string
		code  int
	}{
		{[]string{"sweep"}, "", 2},
		{[]string{"ablate", spec9, spec9}, "", 2},
		{[]string{"rover", "extra"}, "", 2},
		{[]string{"rover", "-bogus"}, "", 2},
		{[]string{"mission", "-steps", "x"}, "", 2},
		{[]string{"report", "-h"}, "", 0},
		{[]string{"ablate", "missing.spec"}, "", 1},
		{[]string{"sweep", "-pmax", "12,x", spec9}, "", 1},
		{[]string{"mission", "-scenario", "missing.scenario"}, "", 1},
		{[]string{"mission", "-battery", "NaN"}, "", 2},
		{[]string{"mission", "-battery", "-100"}, "", 2},
		{[]string{"mission", "-battery", "+Inf"}, "", 2},
		{[]string{"-stage", "bogus", spec9}, "", 1},
		{[]string{"-format", "bogus", spec9}, "", 1},
		{[]string{"./rover"}, "", 1},
		{[]string{"-format", "metrics", "-"}, "pmax 10\ntask x R 3 2\ntask y R 2 1\n", 0},
		{[]string{"-format", "metrics", "-"}, "pmax 10\ntask x R 3 NaN\ntask y R 2 1\n", 1},
		{[]string{"-format", "metrics", "-"}, "pmax NaN\ntask x R 3 1\n", 1},
		{[]string{"gen", "extra"}, "", 2},
		{[]string{"gen", "-tasks", "-3"}, "", 2},
		{[]string{"gen", "-resources", "-2"}, "", 2},
		{[]string{"gen", "-layers", "-1"}, "", 2},
		{[]string{"gen", "-max-delay", "-4"}, "", 2},
		{[]string{"gen", "-max-power", "NaN"}, "", 2},
		{[]string{"gen", "-max-power", "+Inf"}, "", 2},
		{[]string{"gen", "-max-power", "0.5", "-tasks", "5"}, "", 2},
		{[]string{"gen", "-max-power", "1", "-tasks", "5"}, "", 0},
		{[]string{"gen", "-tasks", "0", "-layers", "0"}, "", 0},
		{[]string{"validate", spec9}, "", 2},
		{[]string{"validate", "missing.spec", "missing.json"}, "", 2},
		{[]string{"validate", spec9, "missing.json"}, "", 2},
		{[]string{"validate", spec9, spec9}, "", 2},
		{[]string{"validate", "-q", spec9, "testdata/example9-violating.json"}, "", 1},
		{[]string{"library"}, "", 2},
		{[]string{"library", "bogus"}, "", 2},
		{[]string{"library", "build"}, "", 1},
		{[]string{"library", "build", "-o", lib, "missing.spec"}, "", 1},
		{[]string{"library", "show"}, "", 2},
		{[]string{"library", "show", "missing.lib"}, "", 1},
		{[]string{"library", "show", spec9}, "", 1},
		{[]string{"library", "select", lib, "-solar", "12"}, "", 2},
		{[]string{"library", "select", "-solar", "0", "-battery", "0", lib}, "", 1},
		{[]string{"simulate", "extra"}, "", 2},
		{[]string{"simulate", "-scenario", "a", "-spec", "b"}, "", 1},
		{[]string{"simulate", "-faults", "bogus=1"}, "", 1},
		{[]string{"simulate", "-spec", spec9, "-n", "1", "-faults", "fail=1,retries=4000000000000000000"}, "", 1},
		{[]string{"simulate", "-n", "5", "-faults", "overrunfrac=+Inf,overrun=1"}, "", 1},
		{[]string{"simulate", "-n", "5", "-faults", "none", "-min-survival", "1"}, "", 0},
		{[]string{"edit"}, "", 2},
		{[]string{"edit", "missing.spec"}, "", 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr); code != tc.code {
			t.Errorf("impacct %s: exit %d, want %d; stderr:\n%s", strings.Join(tc.args, " "), code, tc.code, &stderr)
		}
	}
}

// TestTable3Columns: every line of Table 3 has its '|' separators at
// the header's byte offsets, with and without the best case's wide
// "1st/2nd" cost cell.
func TestTable3Columns(t *testing.T) {
	for _, args := range [][]string{{"rover"}, {"rover", "-preheat=false"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, nil, &stdout, &stderr); code != 0 {
			t.Fatalf("impacct %s: exit %d: %s", strings.Join(args, " "), code, &stderr)
		}
		var want []int
		for _, line := range strings.Split(stdout.String(), "\n") {
			var at []int
			for i := range line {
				if line[i] == '|' {
					at = append(at, i)
				}
			}
			if len(at) == 0 {
				continue
			}
			if want == nil {
				want = at
			} else if !slices.Equal(at, want) {
				t.Errorf("impacct %s: separators at %v, header's at %v:\n%s", strings.Join(args, " "), at, want, line)
			}
		}
		if len(want) != 2 {
			t.Errorf("impacct %s: header has %d separators, want 2:\n%s", strings.Join(args, " "), len(want), &stdout)
		}
	}
}
