package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse exercises the specification parser with arbitrary input:
// it must never panic, and any problem it accepts must round-trip
// through Format and validate.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"problem x\ntask a R 1 2\n",
		"task a R 1 2\ntask b S 3 4\na -> b [1,9]\n",
		"pmax 10\npmin 5\nbase 1\ntask t r 1 0\nrelease t 3\ndeadline t 9\n",
		"# comment only\n",
		"task a R 1 2\nprecede a a\n",
		"task a R -1 2\n",
		"a -> b [,]\n",
		"task a R 1 1e308\n",
		strings.Repeat("task t R 1 1\n", 3),
		"pmax 10\ntask x R 3 NaN\ntask y R 2 1\n",
		"pmax NaN\ntask x R 3 1\ntask y R 2 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		p, err := ParseString(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted problem fails validation: %v", err)
		}
		q, err := ParseString(Format(p))
		if err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n%s", err, Format(p))
		}
		if !problemsEqual(p, q) {
			t.Fatalf("round-trip changed the problem:\n%s", Format(p))
		}
	})
}

// FuzzParseScheduleJSON exercises the schedule-document reader that
// /verify and `impacct validate` share, against the paper's nine-task
// example: it must never panic, and any schedule it accepts must give
// every task exactly one start and round-trip through
// FormatScheduleJSON.
func FuzzParseScheduleJSON(f *testing.F) {
	p, err := ParseFile("../../testdata/example9.spec")
	if err != nil {
		f.Fatal(err)
	}
	seeds, err := filepath.Glob("../web/testdata/schedule-*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no schedule seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{
		"",
		"{}",
		`{"tasks": null}`,
		`{"tasks": [{"name": "a", "start": 0}, {"name": "a", "start": 1}]}`,
		`{"tasks": [{"name": "a", "start": -5}]}`,
		`{"tasks": [{"name": "a", "start": 1e99}]}`,
		`[1, 2, 3]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScheduleJSON(p, data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(s.Start) != len(p.Tasks) {
			t.Fatalf("accepted %d starts for a %d-task problem", len(s.Start), len(p.Tasks))
		}
		out, err := FormatScheduleJSON(p, s)
		if err != nil {
			t.Fatalf("accepted schedule does not format: %v", err)
		}
		q, err := ParseScheduleJSON(p, out)
		if err != nil {
			t.Fatalf("formatted schedule does not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s.Start, q.Start) {
			t.Fatalf("round-trip changed the starts: %v -> %v", s.Start, q.Start)
		}
	})
}
