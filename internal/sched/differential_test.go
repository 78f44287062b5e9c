package sched

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/rover"
	"repro/internal/spec"
)

// diffOptions are the option sets the audited differential suite runs
// under: the plain pipeline, the compaction-enabled pipeline
// (exercising the tracker-driven left shifts), a restarted search, and
// a lock-free random-slot run.
func diffOptions() []Options {
	return []Options{
		{Seed: 3},
		{Seed: 3, Compact: true},
		{Seed: 9, Compact: true, Restarts: 2},
		{Seed: 3, DisableLocks: true, SlotChoices: []SlotChoice{SlotRandom}},
	}
}

// TestDifferentialGenerated audits the incremental core over the
// property-test generator's random layered problems.
func TestDifferentialGenerated(t *testing.T) {
	for seed := int64(0); seed < 35; seed++ {
		p := genProblem(seed)
		for oi, opts := range diffOptions() {
			assertAudited(t, fmt.Sprintf("gen seed %d opts %d", seed, oi), p, opts)
		}
	}
}

// specCorpus parses the pipeline fuzz corpus seeds — the synthetic spec
// snippets plus every spec document in testdata.
func specCorpus(t *testing.T) []*model.Problem {
	t.Helper()
	inputs := []string{
		"task a R 2 4\ntask b S 2 4\npmax 10\n",
		"pmax 16\npmin 14\ntask a A 3 6\ntask d A 4 10\na -> d [3,]\n",
		"task x R 1 0\nrelease x 5\ndeadline x 5\n",
		"task p H 5 7.6\ntask s M 5 4.3\np -> s [5,50]\n",
		"base 2\npmax 9\ntask a A 4 4\ntask b B 4 4\ntask c C 4 4\n",
	}
	docs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.spec"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Fatal("no testdata spec documents found")
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, string(data))
	}
	probs := make([]*model.Problem, len(inputs))
	for i, input := range inputs {
		if probs[i], err = spec.ParseString(input); err != nil {
			t.Fatalf("corpus input %d does not parse: %v", i, err)
		}
	}
	return probs
}

// TestDifferentialSpecCorpus replays the spec corpus through the
// audited pipeline.
func TestDifferentialSpecCorpus(t *testing.T) {
	for i, p := range specCorpus(t) {
		for oi, opts := range diffOptions() {
			assertAudited(t, fmt.Sprintf("spec %d opts %d", i, oi), p, opts)
		}
	}
}

// TestDifferentialRover audits the pipeline over the paper's rover
// iteration graphs (all three Table 2 cases, cold and warm).
func TestDifferentialRover(t *testing.T) {
	for _, c := range []rover.Case{rover.Best, rover.Typical, rover.Worst} {
		for _, k := range []rover.IterationKind{rover.Cold, rover.ColdPreheat, rover.Warm} {
			p := rover.BuildIteration(c, k)
			for oi, opts := range diffOptions() {
				assertAudited(t, fmt.Sprintf("rover %v/%v opts %d", c, k, oi), p, opts)
			}
		}
	}
}

// TestConcurrentStatesShareNoCache runs many pipelines over the same
// problem value concurrently. Each run owns a private state (tracker,
// gap index, working graph); under -race this fails if any stored
// slack or profile segment were shared across states. All runs must
// also agree exactly, since they are seeded identically.
func TestConcurrentStatesShareNoCache(t *testing.T) {
	p := genProblem(17)
	ref, err := MinPower(p.Clone(), Options{Seed: 5, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = MinPower(p, Options{Seed: 5, Compact: true})
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !r.Schedule.Equal(ref.Schedule) {
			t.Fatalf("run %d diverged: %v vs %v", i, r.Schedule.Start, ref.Schedule.Start)
		}
	}
}
