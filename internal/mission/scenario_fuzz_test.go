package mission

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenario feeds arbitrary scenario text through the parser. The
// parser must never panic, every accepted scenario must satisfy the
// documented invariants, and the Format/Parse pair must be a fixed
// point: formatting an accepted scenario and re-parsing it yields the
// same formatted text. Rejected inputs (malformed directives, comment
// and blank-line edge cases, negative values) are fine; an accepted
// scenario that breaks its invariants is not.
func FuzzScenario(f *testing.F) {
	seeds := []string{
		"scenario s\nsteps 48\nbattery 5000 10\nphase 600 best 14.9\nphase 0 worst 9\n",
		"steps 1\nphase 0 typical 12\n",
		"# comment only\n\nsteps 2\nphase 10 best 14.9 # trailing\nphase 0 worst 9\n",
		"steps 4\nphase 600 best 14.9\nfault dropout 100 30\nfault brownout 200 60 0.5\n",
		"steps 4\nphase 0 night 1\n",
		"battery 5000\n",
		"fault dropout 1 1\n",
		"steps 0x10\nphase 0 best 9\n",
		"\n\n#\n  # indented comment\nsteps 3\nphase 0 best 1\n",
		"steps 4\nbattery NaN 10\nphase 600 best NaN\nfault brownout 200 60 NaN\n",
		"steps 4\nbattery 5000 +Inf\nphase 0 best 9\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Seed the corpus with the repository's real scenario documents,
	// mirroring FuzzPipeline's testdata-backed corpus.
	docs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.scenario"))
	if err != nil {
		f.Fatal(err)
	}
	if len(docs) == 0 {
		f.Fatal("no testdata scenario documents found for the corpus")
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 4096 {
			return
		}
		sc, err := ParseScenario(strings.NewReader(input))
		if err != nil {
			return
		}
		// Invariants the validator promises.
		if sc.TargetSteps <= 0 || len(sc.Phases) == 0 {
			t.Fatalf("accepted scenario violates invariants: %+v", sc)
		}
		// The fixed-point check below cannot see NaN or ±Inf (each
		// formats and re-parses as itself), so finiteness is checked
		// on its own.
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if b := sc.Battery; b != nil && !(finite(b.Capacity) && finite(b.MaxPower)) {
			t.Fatalf("accepted non-finite battery: %+v", b)
		}
		for i, ph := range sc.Phases {
			if !finite(ph.Cond.Solar) {
				t.Fatalf("phase %d has non-finite solar: %+v", i, ph)
			}
			if ph.Duration < 0 || ph.Cond.Solar < 0 {
				t.Fatalf("phase %d negative: %+v", i, ph)
			}
			if ph.Duration == 0 && i != len(sc.Phases)-1 {
				t.Fatalf("open-ended phase %d is not final", i)
			}
		}
		for i, fp := range sc.Faults {
			if fp.Start < 0 || fp.Duration <= 0 {
				t.Fatalf("fault %d out of range: %+v", i, fp)
			}
			if !finite(fp.Factor) {
				t.Fatalf("fault %d has non-finite factor: %+v", i, fp)
			}
			if fp.Kind == FaultBrownout && (fp.Factor < 0 || fp.Factor >= 1) {
				t.Fatalf("fault %d factor out of range: %+v", i, fp)
			}
		}
		// Format must re-parse to the same formatted text.
		out := FormatScenario(sc)
		sc2, err := ParseScenario(strings.NewReader(out))
		if err != nil {
			t.Fatalf("formatted scenario rejected: %v\n%s", err, out)
		}
		if out2 := FormatScenario(sc2); out2 != out {
			t.Fatalf("format not a fixed point:\n--- first\n%s--- second\n%s", out, out2)
		}
	})
}
