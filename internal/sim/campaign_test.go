package sim

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/mission"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/verify"
)

// contingencyLog is a concurrency-safe recorder for the observe seam.
type contingencyLog struct {
	mu     sync.Mutex
	events []ContingencyEvent
}

func (l *contingencyLog) record(ev ContingencyEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

// observed runs fn with the observe seam recording into a fresh log.
func observed(fn func()) *contingencyLog {
	log := &contingencyLog{}
	observe = log.record
	defer func() { observe = nil }()
	fn()
	return log
}

// faultedCampaign is one campaign target of the determinism and
// adoption-gate tests.
type faultedCampaign struct {
	name   string
	m      Mission
	faults FaultModel
}

// faultedCampaigns are the chain under a scripted dropout and the
// heterogeneous nine-task example, whose plans run on their resolved
// problems, under the default fault model; and the heterogeneous
// example under power faults only, where no task may ever run longer
// than its plan says.
func faultedCampaigns(t *testing.T) []faultedCampaign {
	chain := chainMission()
	chain.Faults = []mission.FaultPhase{{Kind: mission.FaultDropout, Start: 3, Duration: 4}}
	powerOnly := DefaultFaults()
	powerOnly.OverrunProb, powerOnly.FailProb = 0, 0
	return []faultedCampaign{
		{"chain", chain, DefaultFaults()},
		{"hetero9", heteroMission(t), DefaultFaults()},
		{"hetero9 power faults", heteroMission(t), powerOnly},
	}
}

// heteroMission wraps the heterogeneous nine-task example as a mission:
// two machines of different speed and power rating, DVS levels and a
// pin.
func heteroMission(t *testing.T) Mission {
	t.Helper()
	p, err := spec.ParseFile("../../testdata/hetero9.spec")
	if err != nil {
		t.Fatal(err)
	}
	return ProblemMission(p)
}

// TestCampaignDeterministicAcrossWorkers is the core determinism
// guarantee: the same (seed, runs) produces byte-identical JSON
// summaries regardless of worker-pool width. The -race CI run drives
// the pooled variant concurrently.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range faultedCampaigns(t) {
		render := func(workers int) []byte {
			c := Campaign{
				Mission: tc.m,
				Faults:  tc.faults,
				Runs:    24,
				Seed:    42,
				Svc:     service.New(service.Config{Workers: workers}),
			}
			sum, err := c.Run()
			if err != nil {
				t.Fatalf("%s campaign (workers=%d): %v", tc.name, workers, err)
			}
			if sum.Survived == 0 {
				t.Fatalf("%s campaign (workers=%d): no run survived: %+v", tc.name, workers, sum)
			}
			b, err := sum.JSON()
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			return b
		}
		seq := render(1)
		pooled := render(4)
		if !bytes.Equal(seq, pooled) {
			t.Fatalf("%s: summaries differ between workers=1 and workers=4:\n--- sequential\n%s\n--- pooled\n%s", tc.name, seq, pooled)
		}
		// And re-running on a warm cache changes nothing.
		if again := render(4); !bytes.Equal(pooled, again) {
			t.Fatalf("%s: summary not stable across repeat runs:\n%s\nvs\n%s", tc.name, pooled, again)
		}
	}
}

// TestCampaignContingenciesVerified asserts the adoption gate on the
// production path (hoisted nominal plan included): every contingency
// schedule a campaign adopts passes the independent verifier — zero
// tolerated violations — every rejected candidate fails it, and
// VerifyRejects counts the hoisted nominal plan's rejects once per run
// plus every contingency reject.
func TestCampaignContingenciesVerified(t *testing.T) {
	for _, tc := range faultedCampaigns(t) {
		c := Campaign{
			Mission: tc.m,
			Faults:  tc.faults,
			Runs:    16,
			Seed:    7,
			Svc:     service.New(service.Config{Workers: 4}),
		}
		cfg := runConfig{Mission: c.Mission, Faults: c.Faults, Svc: c.Svc}
		nom := hoistNominal(context.Background(), cfg)
		var sum Summary
		log := observed(func() {
			var err error
			if sum, err = c.Run(); err != nil {
				t.Fatalf("%s campaign: %v", tc.name, err)
			}
		})
		if len(log.events) == 0 {
			t.Fatalf("%s: no contingency events observed", tc.name)
		}
		planned := nom.p0.TaskIndex()
		rejected, adopted := 0, 0
		for _, ev := range log.events {
			rep := verify.Check(ev.Problem, ev.Schedule)
			if ev.Adopted {
				adopted++
				if !rep.OK() {
					t.Errorf("%s: adopted contingency at t=%d (seed %d, source %s) fails verification: %v",
						tc.name, ev.MissionTime, ev.Seed, ev.Source, rep.Err())
				}
				// A replan keeps every task's machine, level and power
				// from the nominal plan; only a revealed overrun may
				// lengthen its delay.
				for _, got := range ev.Problem.Tasks {
					want := nom.p0.Tasks[planned[got.Name]]
					if got.Machine != want.Machine || got.Power != want.Power || got.Delay < want.Delay ||
						(tc.faults.OverrunProb == 0 && tc.faults.FailProb == 0 && got.Delay != want.Delay) {
						t.Fatalf("%s: contingency at t=%d (seed %d) runs %s as %+v, the nominal plan as %+v",
							tc.name, ev.MissionTime, ev.Seed, got.Name, got, want)
					}
				}
			}
			if !ev.Adopted {
				rejected++
				if rep.OK() {
					t.Errorf("%s: rejected contingency at t=%d (seed %d) verifies clean", tc.name, ev.MissionTime, ev.Seed)
				}
			}
		}
		if adopted < 2 {
			t.Errorf("%s: only %d adopted plans observed; the campaign never replanned", tc.name, adopted)
		}
		// The campaign's own hoist reported the nominal rejects once.
		if want := c.Runs*nom.rejects + rejected - nom.rejects; sum.VerifyRejects != want {
			t.Errorf("%s: VerifyRejects = %d, want %d (%d runs × %d nominal + %d contingency rejects)",
				tc.name, sum.VerifyRejects, want, c.Runs, nom.rejects, rejected-nom.rejects)
		}
	}
}

// TestCampaignObserveDoesNotPerturb shows the observe seam only watches: a
// campaign's summary is byte-identical with and without it installed.
func TestCampaignObserveDoesNotPerturb(t *testing.T) {
	m := chainMission()
	m.Faults = []mission.FaultPhase{{Kind: mission.FaultDropout, Start: 3, Duration: 4}}
	for _, workers := range []int{1, 4} {
		render := func() []byte {
			c := Campaign{
				Mission: m,
				Faults:  DefaultFaults(),
				Runs:    24,
				Seed:    42,
				Svc:     service.New(service.Config{Workers: workers}),
			}
			sum, err := c.Run()
			if err != nil {
				t.Fatalf("campaign (workers=%d): %v", workers, err)
			}
			b, err := sum.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		plain := render()
		var watched []byte
		if log := observed(func() { watched = render() }); len(log.events) == 0 {
			t.Fatalf("workers=%d: no events observed", workers)
		}
		if !bytes.Equal(plain, watched) {
			t.Fatalf("workers=%d: summary changes with observe installed:\n--- without\n%s\n--- with\n%s", workers, plain, watched)
		}
	}
}

// TestCampaignRover drives the paper's rover mission through the
// default fault model and checks the aggregate invariants.
func TestCampaignRover(t *testing.T) {
	sc, err := mission.ParseScenarioFile("../../testdata/paper.scenario")
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	c := Campaign{
		Mission: RoverMission(sc),
		Faults:  DefaultFaults(),
		Runs:    12,
		Seed:    1,
		Svc:     service.New(service.Config{Workers: 4}),
	}
	sum, err := c.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if sum.Survived == 0 {
		t.Fatalf("no run survived the default fault model: %+v", sum)
	}
	if sum.Survived > sum.Runs {
		t.Fatalf("Survived %d > Runs %d", sum.Survived, sum.Runs)
	}
	failed := 0
	for _, n := range sum.Failures {
		failed += n
	}
	if sum.Survived+failed != sum.Runs {
		t.Errorf("survived %d + failed %d != runs %d", sum.Survived, failed, sum.Runs)
	}
	if sum.EnergyCost.Max < sum.EnergyCost.P95 || sum.EnergyCost.P95 < sum.EnergyCost.P50 {
		t.Errorf("energy distribution not ordered: %+v", sum.EnergyCost)
	}
	if sum.SurvivalRate <= 0 || sum.SurvivalRate > 1 {
		t.Errorf("SurvivalRate = %g out of range", sum.SurvivalRate)
	}
}

// TestCampaignZeroFaultsAlwaysSurvives: with no faults every run flies
// its nominal plan unchanged, so it survives without replanning and
// draws exactly the plan's energy cost from the battery. The
// heterogeneous row holds only if the gate, the replay and the fault
// draw all read the plan's resolved problem.
func TestCampaignZeroFaultsAlwaysSurvives(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Mission
	}{{"chain", chainMission()}, {"hetero9", heteroMission(t)}} {
		svc := service.New(service.Config{Workers: 2})
		c := Campaign{
			Mission: tc.m,
			Faults:  FaultModel{},
			Runs:    20,
			Seed:    3,
			Svc:     svc,
		}
		sum, err := c.Run()
		if err != nil {
			t.Fatalf("%s campaign: %v", tc.name, err)
		}
		if sum.Survived != sum.Runs || sum.Reschedules != 0 || sum.VerifyRejects != 0 {
			t.Fatalf("%s: zero-fault campaign should be uneventful: %+v", tc.name, sum)
		}
		p0 := tc.m.Problem.Clone()
		p0.Pmin = tc.m.Phases[0].Cond.Solar
		p0.Pmax = p0.Pmin + tc.m.Battery.MaxPower
		r, err := svc.Schedule(p0, sched.Options{}, service.StageMinPower)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sum.EnergyCost.Mean, r.EnergyCost(); math.Abs(got-want) > 1.0/(1<<20) {
			t.Fatalf("%s: battery energy mean %g J, served plan's energy cost %g J", tc.name, got, want)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := (Campaign{Runs: 0, Mission: chainMission()}).Run(); err == nil {
		t.Error("Runs=0 accepted")
	}
	if _, err := (Campaign{Runs: 1}).Run(); err == nil {
		t.Error("empty mission accepted")
	}
}
