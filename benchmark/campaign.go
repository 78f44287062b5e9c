package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/verify"
)

const whyCampaign = "repeated 1024-run fault campaigns on a cold service: fault replay, rescheduling, verify-gated adoption and the reducer fold work"

const (
	// campaignRuns is the size of one campaign call, as the CLI runs it.
	campaignRuns = 1024
	// warmupRuns sizes the set-up campaign that takes first-call costs.
	warmupRuns = 64
	// qualityCampaigns is the deterministic prefix of campaigns whose
	// summaries give the quality metrics.
	qualityCampaigns = 8
)

func calCampaign(e *env) string {
	runs, _ := campaignSizes(e.small)
	return fmt.Sprintf("closed loop, 1 caller, %d-run PaperMission campaigns with DefaultFaults and successive seeds, each on a fresh service (Workers=GOMAXPROCS)", runs)
}

func campaignSizes(small bool) (runs, quality int) {
	if small {
		return 32, 2
	}
	return campaignRuns, qualityCampaigns
}

// campaignState is the mission a campaign workload flies.
type campaignState struct {
	mission sim.Mission
	faults  sim.FaultModel
	runs    int
}

// campaign runs one campaign on a fresh service with the given worker
// count, as the CLI does, and returns its summary and service.
func (cs *campaignState) campaign(ctx context.Context, seed int64, workers int) (sim.Summary, *service.Service, error) {
	svc := service.New(service.Config{Workers: workers})
	c := sim.Campaign{Mission: cs.mission, Faults: cs.faults, Runs: cs.runs, Seed: seed, Svc: svc}
	sum, err := c.RunCtx(ctx)
	return sum, svc, err
}

func runCampaign(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome(0.9)
	runs, quality := campaignSizes(e.small)
	workers := runtime.GOMAXPROCS(0)
	cs, err := setUp(o, func() (*campaignState, error) {
		cs := &campaignState{mission: sim.PaperMission(), faults: sim.DefaultFaults(), runs: warmupRuns}
		if e.small {
			cs.runs = 8
		}
		if _, _, err := cs.campaign(ctx, -1, workers); err != nil {
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
		cs.runs = runs
		return cs, nil
	}, func(*campaignState) {})
	if err != nil {
		return nil, err
	}

	// Campaign k uses seed base+k; the quality metrics come from the
	// first campaigns, whatever the machine's speed.
	base := e.seed * 1_000_000
	sums := make([]*sim.Summary, quality)
	var acc campaignCounters
	k := int64(-1)
	next := func() int64 { k++; return base + k }
	loop := func(window time.Duration, next func() int64) ([]float64, float64) {
		var lats []float64
		var busy float64
		done := 0
		for start := time.Now(); time.Since(start) < window && ctx.Err() == nil; {
			seed := next()
			o.attempted++
			t0 := time.Now()
			sum, svc, err := cs.campaign(ctx, seed, workers)
			t1 := time.Now()
			if err != nil {
				o.fail(e, "campaign seed %d: %v", seed, err)
				lats = append(lats, math.Inf(1))
				continue
			}
			if e.rec.active() {
				e.rec.record("sim.campaign", 0, t0, t1)
				acc.add(sum, svc.Stats(), t1.Sub(t0))
			}
			if i := seed - base; i < int64(quality) && sums[i] == nil {
				sums[i] = &sum
			}
			lats = append(lats, ms(t1.Sub(t0)))
			busy += t1.Sub(t0).Seconds()
			done++
		}
		return lats, float64(done*runs) / busy
	}
	if e.rec == nil {
		o.lat, o.throughput = loop(e.window, next)
	} else {
		// The traced half replays the untraced half's seeds, so their
		// throughput ratio is the tracing overhead.
		_, baseRate := loop(e.phase(0.5), replayable(&next))
		e.rec.on.Store(true)
		o.lat, o.throughput = loop(e.phase(0.5), next)
		o.layers["trace.overhead"] = o.throughput / baseRate
		acc.report(o, workers)
	}
	var ec []float64
	for i, sum := range sums {
		if sum == nil {
			o.attempted++
			s, _, err := cs.campaign(ctx, base+int64(i), workers)
			if err != nil {
				o.fail(e, "campaign seed %d: %v", base+int64(i), err)
				continue
			}
			sum = &s
			sums[i] = sum
		}
		ec = append(ec, sum.EnergyCost.Mean)
	}
	o.energy = mean(ec)

	if sums[0] != nil {
		cs.gateDeterminism(ctx, e, o, base, *sums[0], workers)
	}
	cs.nominal(e, o)
	return o, nil
}

// gateDeterminism re-runs the first campaign at Workers=1 and as two
// merged ReduceRange halves; both summaries must be byte-identical to
// the one the measured loop produced at GOMAXPROCS. The Workers=1 run
// also gives the campaign pool's speedup.
func (cs *campaignState) gateDeterminism(ctx context.Context, e *env, o *outcome, seed int64, want sim.Summary, workers int) {
	wantJSON, err := want.JSON()
	if err != nil {
		o.fail(e, "campaign summary: %v", err)
		return
	}
	check := func(what string, got sim.Summary) {
		data, err := got.JSON()
		if err != nil || !bytes.Equal(data, wantJSON) {
			o.fail(e, "campaign seed %d: summary %s differs from Workers=%d", seed, what, workers)
		}
	}
	start := time.Now()
	par, _, err := cs.campaign(ctx, seed, workers)
	tPar := time.Since(start)
	if err != nil {
		o.fail(e, "campaign seed %d: %v", seed, err)
		return
	}
	check("on a second run", par)
	start = time.Now()
	one, _, err := cs.campaign(ctx, seed, 1)
	tOne := time.Since(start)
	if err != nil {
		o.fail(e, "campaign seed %d at Workers=1: %v", seed, err)
		return
	}
	check("at Workers=1", one)
	o.layers["sim.pool_speedup"] = tOne.Seconds() / tPar.Seconds()

	c := sim.Campaign{Mission: cs.mission, Faults: cs.faults, Runs: cs.runs, Seed: seed, Svc: service.New(service.Config{Workers: workers})}
	lo, err := c.ReduceRange(ctx, 0, cs.runs/2)
	if err != nil {
		o.fail(e, "campaign seed %d: first half: %v", seed, err)
		return
	}
	hi, err := c.ReduceRange(ctx, cs.runs/2, cs.runs)
	if err != nil {
		o.fail(e, "campaign seed %d: second half: %v", seed, err)
		return
	}
	lo.Merge(hi)
	check("of merged halves", lo.Finalize(seed))
}

// nominal plans the mission under its start conditions, as every run of
// a campaign first does: the plan's utilization is the workload's
// utilization, and a traced run times replaying and verifying it.
func (cs *campaignState) nominal(e *env, o *outcome) {
	m := cs.mission
	p0 := m.Problem.Clone()
	p0.Pmin = m.Phases[0].Cond.Solar
	p0.Pmax = p0.Pmin + m.Battery.MaxPower
	res, err := sched.MinPower(p0, sched.Options{})
	if err != nil {
		o.fail(e, "nominal plan: %v", err)
		return
	}
	rep := verify.CheckAssigned(p0, res.Schedule, res.Assignment)
	if !rep.OK() {
		o.fail(e, "nominal plan: %v", rep.Err())
		return
	}
	o.util = rep.Metrics.Utilization
	o.layers["verify.finish"] = float64(rep.Metrics.Finish)
	if e.rec == nil {
		return
	}
	probeStages(e, o, []instance{{p: p0}})
	var replay, check []float64
	for r := 0; r < 20; r++ {
		bat := m.Battery
		sup := power.Supply{Solar: power.NewSolar(p0.Pmin), Battery: &bat}
		start := time.Now()
		if _, err := exec.Execute(p0, res.Schedule, sup, &bat, 0); err != nil {
			o.fail(e, "nominal replay: %v", err)
			return
		}
		mid := time.Now()
		verify.CheckAssigned(p0, res.Schedule, res.Assignment)
		end := time.Now()
		e.rec.record("exec.replay", 0, start, mid)
		e.rec.record("verify.check", 0, mid, end)
		replay = append(replay, us(mid.Sub(start)))
		check = append(check, us(end.Sub(mid)))
	}
	o.layers["exec.replay_us"] = median(replay)
	o.layers["verify.check_us"] = median(check)
}

// campaignCounters accumulates a traced campaign phase.
type campaignCounters struct {
	runs, survived, reschedules, rejects, fallbacks, campaigns int
	hits, misses, joins                                        int64
	computeNS, wallNS                                          int64
}

func (a *campaignCounters) add(s sim.Summary, st service.Stats, wall time.Duration) {
	a.campaigns++
	a.runs += s.Runs
	a.survived += s.Survived
	a.reschedules += s.Reschedules
	a.rejects += s.VerifyRejects
	a.fallbacks += s.Fallbacks
	a.hits += st.Hits + st.HitsL2
	a.misses += st.Misses
	a.joins += st.Joins
	for _, ns := range st.ComputeNS {
		a.computeNS += ns
	}
	a.wallNS += wall.Nanoseconds()
}

func (a *campaignCounters) report(o *outcome, workers int) {
	if a.campaigns == 0 {
		return
	}
	c := float64(a.campaigns)
	o.layers["sim.reschedules_per_run"] = float64(a.reschedules) / float64(a.runs)
	o.layers["sim.verify_rejects"] = float64(a.rejects) / c
	o.layers["sim.fallbacks"] = float64(a.fallbacks) / c
	o.layers["sim.survival_rate"] = float64(a.survived) / float64(a.runs)
	if lookups := a.hits + a.misses + a.joins; lookups > 0 {
		o.layers["sim.service.hit_rate"] = float64(a.hits) / float64(lookups)
	}
	o.layers["sim.service.compute_share"] = float64(a.computeNS) / float64(a.wallNS*int64(workers))
}
