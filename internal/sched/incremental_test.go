package sched

import (
	"testing"
	"testing/quick"
)

// TestQuickIncrementalEqualsFullRecompute: the incremental longest-path
// updates are an engineering optimization only — with the audit on,
// every delay, undo, timing visit step and backtrack leaves the live
// solution equal to a full recompute of the working graph.
func TestQuickIncrementalEqualsFullRecompute(t *testing.T) {
	f := func(seed int64) bool {
		var err error
		_, auditErr := Audit(func() { _, err = MinPower(genProblem(seed), Options{Seed: 3}) })
		if err != nil || auditErr != nil {
			t.Logf("seed %d: run %v, audit %v", seed, err, auditErr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
