package sched

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/spec"
	"repro/internal/verify"
)

// FuzzPipeline feeds arbitrary spec text through the parser and, when
// it yields a valid problem, through the full scheduling pipeline. The
// pipeline must never panic, and everything it returns must pass the
// independent oracle. Inputs that are unparsable, oversized, or
// infeasible are fine; invalid *output* is not.
func FuzzPipeline(f *testing.F) {
	seeds := []string{
		"task a R 2 4\ntask b S 2 4\npmax 10\n",
		"pmax 16\npmin 14\ntask a A 3 6\ntask d A 4 10\na -> d [3,]\n",
		"task x R 1 0\nrelease x 5\ndeadline x 5\n",
		"task p H 5 7.6\ntask s M 5 4.3\np -> s [5,50]\n",
		"base 2\npmax 9\ntask a A 4 4\ntask b B 4 4\ntask c C 4 4\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Seed the corpus with the repository's real spec documents (the
	// nine-task example, the satellite pass, ...): realistic structure
	// the synthetic seeds above don't reach.
	docs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.spec"))
	if err != nil {
		f.Fatal(err)
	}
	if len(docs) == 0 {
		f.Fatal("no testdata spec documents found for the corpus")
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 2048 {
			return
		}
		p, err := spec.ParseString(input)
		if err != nil {
			return
		}
		// Keep the search spaces small so the fuzzer explores inputs,
		// not scheduler effort.
		if len(p.Tasks) > 12 {
			return
		}
		total := 0
		for _, task := range p.Tasks {
			if task.Delay > 100 {
				return
			}
			total += task.Delay
		}
		for _, c := range p.Constraints {
			if c.Min > 500 || c.Min < -500 || (c.HasMax && c.Max > 500) {
				return
			}
		}
		for _, task := range p.Tasks {
			if len(task.Levels) > 4 {
				return
			}
		}
		if len(p.Machines) > 4 {
			return
		}
		opts := Options{MaxBacktracks: 300, MaxSpikeRounds: 500, MaxScans: 2}
		r, err := Run(p, opts)
		if err != nil {
			return // infeasibility and budget exhaustion are legal outcomes
		}
		// CheckAssigned with a nil assignment is exactly Check, so one
		// oracle call covers degenerate and heterogeneous inputs alike.
		if rep := verify.CheckAssigned(p, r.Schedule, r.Assignment); !rep.OK() {
			t.Fatalf("pipeline emitted an invalid schedule for:\n%s\n%v", input, rep.Err())
		}
		// The incremental core (profile tracker, gap index with its
		// stored slacks, live longest-path banks) is an engineering
		// optimization: every answer it gives must match the
		// from-scratch reference, and the audited run must emit the
		// exact same schedule.
		var ar *Result
		_, auditErr := Audit(func() { ar, err = Run(p.Clone(), opts) })
		if auditErr != nil {
			t.Fatalf("audit failed for:\n%s\n%v", input, auditErr)
		}
		if err != nil {
			t.Fatalf("audited run failed where the plain run succeeded for:\n%s\n%v", input, err)
		}
		if !r.Schedule.Equal(ar.Schedule) || !reflect.DeepEqual(r.Assignment, ar.Assignment) {
			t.Fatalf("audited run diverged for:\n%s\nplain   %v %v\naudited %v %v",
				input, r.Schedule.Start, r.Assignment, ar.Schedule.Start, ar.Assignment)
		}
	})
}
