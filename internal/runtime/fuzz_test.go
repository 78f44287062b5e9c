package runtime

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/verify"
)

// heteroLibrary saves a library of two entries: a degenerate rover
// iteration and the heterogeneous nine-task example's plan, stored as
// the resolved problem it executes.
func heteroLibrary(t testing.TB) []byte {
	t.Helper()
	var sel Selector
	hetero9, err := spec.ParseFile("../../testdata/hetero9.spec")
	if err != nil {
		t.Fatal(err)
	}
	example9, err := spec.ParseFile("../../testdata/example9.spec")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*model.Problem{example9, hetero9} {
		r, err := sched.Run(p, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sel.Add(NewEntry(p.Name, r.EffectiveProblem(), r.Schedule))
	}
	var buf bytes.Buffer
	if err := Save(&buf, &sel); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLibraryLoad feeds arbitrary documents to the library loader: it
// must never panic, and every entry it accepts must verify against its
// own problem.
func FuzzLibraryLoad(f *testing.F) {
	f.Add(heteroLibrary(f))
	f.Add([]byte(`{"entries":[]}`))
	f.Add([]byte(`{"entries":[{"name":"x","spec":"task a R 1 1\n","schedule":{"tasks":[{"name":"a","start":0}]}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sel, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, e := range sel.Entries() {
			if rep := verify.Check(e.Prob, e.Sched); !rep.OK() {
				t.Fatalf("accepted entry %s fails verification: %v", e.Name, rep.Err())
			}
		}
	})
}

// TestLoadHeteroEntries: a library of resolved plans loads and selects
// like any other, and an entry that stores the unresolved
// heterogeneous problem is refused rather than judged on its nominal
// tasks.
func TestLoadHeteroEntries(t *testing.T) {
	sel, err := Load(bytes.NewReader(heteroLibrary(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Entries()) != 2 {
		t.Fatalf("loaded %d entries, want 2", len(sel.Entries()))
	}
	if e, ok := sel.Select(16, 6); !ok || e.Name != "hetero-nine" {
		t.Fatalf("Select(16, 6) = %s, %v; want the heterogeneous plan", e.Name, ok)
	}

	p, err := spec.ParseFile("../../testdata/hetero9.spec")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.Run(p, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var nominal Selector
	nominal.Add(NewEntry(p.Name, p, r.Schedule))
	var buf bytes.Buffer
	if err := Save(&buf, &nominal); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("an entry storing the unresolved heterogeneous problem loaded")
	}
}
