package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const spec9 = "../../testdata/example9.spec"

// TestGolden drives every subcommand and the default path through run
// and compares stdout (stderr for a nonzero exit) with
// testdata/<name>.golden. Regenerate with `go test ./cmd/impacct -update`.
func TestGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		code   int
	}{
		{"rover", []string{"rover"}, 0},
		{"rover-gantt", []string{"rover", "-gantt"}, 0},
		{"rover-no-preheat", []string{"rover", "-preheat=false"}, 0},
		{"mission", []string{"mission"}, 0},
		{"mission-scenario", []string{"mission", "-scenario", "../../testdata/paper.scenario"}, 0},
		{"mission-battery", []string{"mission", "-battery", "5000"}, 0},
		{"report", []string{"report"}, 0},
		{"ablate", []string{"ablate", spec9}, 0},
		{"sweep", []string{"sweep", "-pmax", "12,16,20", spec9}, 0},
		{"metrics", []string{"-format", "metrics", spec9}, 0},
		{"usage", nil, 2},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("impacct %s: exit %d, want %d; stderr:\n%s", strings.Join(tc.args, " "), code, tc.code, &stderr)
			}
			got := stdout.Bytes()
			if code != 0 {
				got = stderr.Bytes()
			}
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

// TestExitCodes: usage errors exit 2 and failures 1, and a spec path
// spelled like a subcommand still reaches the default path.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"sweep"}, 2},
		{[]string{"ablate", spec9, spec9}, 2},
		{[]string{"rover", "extra"}, 2},
		{[]string{"rover", "-bogus"}, 2},
		{[]string{"mission", "-steps", "x"}, 2},
		{[]string{"report", "-h"}, 0},
		{[]string{"ablate", "missing.spec"}, 1},
		{[]string{"sweep", "-pmax", "12,x", spec9}, 1},
		{[]string{"mission", "-scenario", "missing.scenario"}, 1},
		{[]string{"-stage", "bogus", spec9}, 1},
		{[]string{"-format", "bogus", spec9}, 1},
		{[]string{"./rover"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
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
		if code := run(args, &stdout, &stderr); code != 0 {
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
