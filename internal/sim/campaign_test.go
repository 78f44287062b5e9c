package sim

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/mission"
	"repro/internal/service"
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

// TestCampaignDeterministicAcrossWorkers is the core determinism
// guarantee: the same (seed, runs) produces byte-identical JSON
// summaries regardless of worker-pool width. The -race CI run drives
// the pooled variant concurrently.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	m := chainMission()
	m.Faults = []mission.FaultPhase{{Kind: mission.FaultDropout, Start: 3, Duration: 4}}
	render := func(workers int) []byte {
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
			t.Fatalf("JSON: %v", err)
		}
		return b
	}
	seq := render(1)
	pooled := render(4)
	if !bytes.Equal(seq, pooled) {
		t.Fatalf("summaries differ between workers=1 and workers=4:\n--- sequential\n%s\n--- pooled\n%s", seq, pooled)
	}
	// And re-running on a warm cache changes nothing.
	if again := render(4); !bytes.Equal(pooled, again) {
		t.Fatalf("summary not stable across repeat runs:\n%s\nvs\n%s", pooled, again)
	}
}

// TestCampaignContingenciesVerified asserts the adoption gate on the
// production path (hoisted nominal plan included): every contingency
// schedule a campaign adopts passes the independent verifier — zero
// tolerated violations — every rejected candidate fails it, and
// VerifyRejects counts the hoisted nominal plan's rejects once per run
// plus every contingency reject.
func TestCampaignContingenciesVerified(t *testing.T) {
	m := chainMission()
	m.Faults = []mission.FaultPhase{{Kind: mission.FaultDropout, Start: 3, Duration: 4}}
	c := Campaign{
		Mission: m,
		Faults:  DefaultFaults(),
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
			t.Fatalf("campaign: %v", err)
		}
	})
	if len(log.events) == 0 {
		t.Fatal("no contingency events observed")
	}
	rejected := 0
	for _, ev := range log.events {
		rep := verify.Check(ev.Problem, ev.Schedule)
		if ev.Adopted && !rep.OK() {
			t.Errorf("adopted contingency at t=%d (seed %d, source %s) fails verification: %v",
				ev.MissionTime, ev.Seed, ev.Source, rep.Err())
		}
		if !ev.Adopted {
			rejected++
			if rep.OK() {
				t.Errorf("rejected contingency at t=%d (seed %d) verifies clean", ev.MissionTime, ev.Seed)
			}
		}
	}
	// The campaign's own hoist reported the nominal rejects once.
	if want := c.Runs*nom.rejects + rejected - nom.rejects; sum.VerifyRejects != want {
		t.Errorf("VerifyRejects = %d, want %d (%d runs × %d nominal + %d contingency rejects)",
			sum.VerifyRejects, want, c.Runs, nom.rejects, rejected-nom.rejects)
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

func TestCampaignZeroFaultsAlwaysSurvives(t *testing.T) {
	c := Campaign{
		Mission: chainMission(),
		Faults:  FaultModel{},
		Runs:    8,
		Seed:    3,
		Svc:     service.New(service.Config{Workers: 2}),
	}
	sum, err := c.Run()
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if sum.Survived != sum.Runs || sum.Reschedules != 0 {
		t.Fatalf("zero-fault campaign should be uneventful: %+v", sum)
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
