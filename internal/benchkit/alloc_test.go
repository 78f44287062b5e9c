package benchkit

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestPipelineAllocBudget pins the flat-memory property of the
// scheduler core with an absolute allocation budget: one full pipeline
// run on the 50-task ladder instance must stay within a fixed number
// of allocations. The budget is ~25% above the measured steady state
// (135 allocs since the constraint graph became one edge arena and the
// task choices one bank, dominated by one-time state construction) and
// far below the pre-rewrite cost (~3.9k) — a single
// accidental allocation on a per-probe hot path (a profile clone, a
// candidate sort buffer) multiplies by the thousands of probes and
// blows the budget immediately, failing fast in the ordinary test
// suite rather than waiting for the CI bench gate.
func TestPipelineAllocBudget(t *testing.T) {
	p := Generate(50, 1)
	opts := Options(50)
	const budget = 170
	avg := testing.AllocsPerRun(5, func() {
		if _, err := sched.MinPower(p, opts); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("full 50-task pipeline run: %.0f allocs, budget %d", avg, budget)
	}
}

// TestCampaignAllocBudget pins the streaming campaign engine's
// constant-memory property the same way: a warm-cache 16-run campaign
// (service L1 populated, per-worker scratch in steady state) must stay
// within a fixed allocation budget. Measured steady state is ~906
// allocs per campaign (~57 per run: each run's faulted environment,
// and for each replan the residual problem, its fingerprint and cache
// key, the L1 lookup and the verifier check); the budget is ~25% above
// that and over an order of magnitude below the pre-streaming engine
// (~37k allocs for the same campaign), so one accidental per-run
// allocation on the hot loop — a cloned nominal problem, a replay
// trace, a name-keyed map — fails here before the CI bench gate sees
// it.
func TestCampaignAllocBudget(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	c := sim.Campaign{
		Mission: sim.PaperMission(),
		Faults:  sim.DefaultFaults(),
		Runs:    16,
		Seed:    1,
		Svc:     svc,
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	const budget = 1130
	avg := testing.AllocsPerRun(5, func() {
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("warm 16-run campaign: %.0f allocs, budget %d", avg, budget)
	}
}
