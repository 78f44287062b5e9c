package sim

import (
	"context"
	"slices"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/power"
	rtlib "repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/verify"
)

// Failure kinds of a run.
const (
	// FailUnschedulable: the nominal problem (at mission start) has no
	// verified schedule.
	FailUnschedulable = "unschedulable"
	// FailTask: a task's transient failures exhausted the retry budget.
	FailTask = "task-failure"
	// FailInfeasible: no contingency schedule exists and the
	// environment never improves before the deadline.
	FailInfeasible = "infeasible"
	// FailBattery: the battery was exhausted (or over-drawn) with no
	// recoverable contingency.
	FailBattery = "battery"
	// FailRescheduleLimit: the run exceeded MaxReschedules — the
	// thrash guard against pathological fault draws.
	FailRescheduleLimit = "reschedule-limit"
	// FailCanceled: the run's context was canceled mid-flight (the run
	// is abandoned, not a verdict about the mission).
	FailCanceled = "canceled"
)

// DefaultMaxReschedules bounds contingency replanning per run.
const DefaultMaxReschedules = 16

// ContingencyEvent describes one candidate contingency schedule at the
// moment it was checked against the verifier.
type ContingencyEvent struct {
	// Seed identifies the run (0 for the nominal plan, which
	// ReduceRange checks once for all of its runs).
	Seed int64
	// MissionTime is when the contingency was computed.
	MissionTime model.Time
	// Problem is the resolved problem the candidate executes: the
	// EffectiveProblem of the residual (or, at t=0, the nominal)
	// problem's plan.
	Problem *model.Problem
	// Schedule is the candidate.
	Schedule schedule.Schedule
	// Source names where it came from: "minpower" for the full
	// pipeline, "maxpower"/"timing" for library fallback entries.
	Source string
	// Adopted reports whether the verifier accepted it.
	Adopted bool
}

// observe, when non-nil, receives every verifier-checked candidate —
// the hoisted nominal plan's once, then every run's contingencies.
// Only tests install it; production leaves it nil. It may be called
// from several goroutines at once.
var observe func(ContingencyEvent)

// runConfig configures one simulated run. ReduceRange resolves Svc and
// MaxReschedules before any run starts.
type runConfig struct {
	Mission Mission
	Faults  FaultModel
	Opts    sched.Options
	// Seed drives every random draw of the run.
	Seed int64
	// Svc is the scheduling service; residual problems are
	// content-addressed, so identical contingencies across runs hit
	// its cache.
	Svc *service.Service
	// MaxReschedules bounds replanning.
	MaxReschedules int
}

// RunResult is the outcome of one simulated run.
type RunResult struct {
	Seed     int64
	Survived bool
	// Failure is the failure kind ("" when Survived).
	Failure string
	// DeadlineMiss: the mission completed but after the deadline.
	DeadlineMiss bool
	// Finish is the mission time execution stopped (completion or
	// failure instant).
	Finish model.Time
	// Reschedules counts adopted-or-attempted contingency replans.
	Reschedules int
	// Fallbacks counts adoptions that did not come from the full
	// pipeline ("minpower") but from the runtime library selection.
	Fallbacks int
	// Waits counts blackout periods idled through waiting for the
	// environment to improve.
	Waits int
	// VerifyRejects counts candidate schedules the verifier refused.
	VerifyRejects int
	// ConstraintDrops counts residual constraints already
	// unsatisfiable at replan time (deadlines in the past).
	ConstraintDrops int
	// EnergyCost is the total battery energy drawn.
	EnergyCost float64
}

// pipelineSource is the adoption source that does not count as a
// fallback.
const pipelineSource = "minpower"

// adopt computes candidate schedules for prob and returns the first
// that survives the verify gate, together with the resolved problem it
// executes (its EffectiveProblem): the full pipeline result when it is
// schedulable and verified, otherwise the best valid entry of a
// runtime library built from the cheaper pipeline stages. A repeated
// residual problem costs a service cache lookup per stage, not a
// recompute; its candidates are verified again on every call.
func adopt(ctx context.Context, prob *model.Problem, cfg runConfig, at model.Time) (*model.Problem, schedule.Schedule, string, int, bool) {
	fp := prob.Fingerprint()
	rejects := 0
	check := func(view *model.Problem, s schedule.Schedule, source string) bool {
		ok := verify.Check(view, s).OK()
		if observe != nil {
			observe(ContingencyEvent{
				Seed: cfg.Seed, MissionTime: at,
				Problem: view, Schedule: s,
				Source: source, Adopted: ok,
			})
		}
		if !ok {
			rejects++
		}
		return ok
	}
	if r, err := cfg.Svc.ScheduleFPCtx(ctx, fp, prob, cfg.Opts, service.StageMinPower); err == nil {
		if view := r.EffectiveProblem(); check(view, r.Schedule, pipelineSource) {
			return view, r.Schedule, pipelineSource, rejects, true
		}
	}
	// Full pipeline infeasible (or rejected): fall back to runtime
	// library selection over the cheaper stages. A canceled context
	// makes these fail fast too; the caller detects cancellation
	// itself rather than reading it as infeasibility.
	var lib rtlib.Selector
	for _, st := range []service.Stage{service.StageMaxPower, service.StageTiming} {
		if r, err := cfg.Svc.ScheduleFPCtx(ctx, fp, prob, cfg.Opts, st); err == nil {
			lib.Add(rtlib.NewEntry(st.String(), r.EffectiveProblem(), r.Schedule))
		}
	}
	var tried []string // at most the two fallback stages
	for {
		var cand rtlib.Selector
		for _, e := range lib.Entries() {
			if !slices.Contains(tried, e.Name) {
				cand.Add(e)
			}
		}
		e, ok := cand.Select(prob.Pmax, prob.Pmin)
		if !ok {
			return nil, schedule.Schedule{}, "", rejects, false
		}
		tried = append(tried, e.Name)
		if check(e.Prob, e.Sched, e.Name) {
			return e.Prob, e.Sched, e.Name, rejects, true
		}
	}
}

// nominalPlan is the t = 0 planning result. Every run of a campaign
// plans the same nominal problem under the same starting conditions,
// so campaigns hoist this once per fan-out and re-account the outcome
// (rejects, fallback counting) per run — byte-identical to each run
// adopting it itself. p0 is the adopted plan's resolved problem and
// seg its index tables; they and the schedule are shared read-only.
type nominalPlan struct {
	p0      *model.Problem
	s0      schedule.Schedule
	seg     segment
	source  string
	rejects int
	ok      bool
	finish0 model.Time
}

// hoistNominal plans the nominal mission under the conditions at t=0.
func hoistNominal(ctx context.Context, cfg runConfig) *nominalPlan {
	m := cfg.Mission
	p := m.Problem.Clone()
	p.Pmin = m.Phases[0].Cond.Solar
	p.Pmax = p.Pmin + m.Battery.MaxPower
	p0, s0, source, rejects, ok := adopt(ctx, p, cfg, 0)
	nom := &nominalPlan{p0: p0, s0: s0, source: source, rejects: rejects, ok: ok}
	if ok {
		nom.seg = nominalSegment(p0)
		nom.finish0 = s0.Finish(p0.Tasks)
	}
	return nom
}

// runOne executes one seeded fault-injection run on a worker's scratch
// state: starting from the campaign's hoisted nominal plan, realize the
// seed's faults, replay the schedule against the faulted environment,
// and replan the residual problem at every violation until the mission
// completes or is lost. When ctx is done the run stops at its next
// replanning decision and reports FailCanceled — an abandoned run, not
// a mission verdict.
func runOne(ctx context.Context, cfg runConfig, sc *runScratch, nom *nominalPlan) RunResult {
	res := RunResult{Seed: cfg.Seed}
	m := cfg.Mission
	rng := sc.seed(cfg.Seed)

	res.VerifyRejects += nom.rejects
	if !nom.ok {
		if ctx.Err() != nil {
			res.Failure = FailCanceled
			return res
		}
		res.Failure = FailUnschedulable
		return res
	}
	if nom.source != pipelineSource {
		res.Fallbacks++
	}
	p0, s0, finish0 := nom.p0, nom.s0, nom.finish0

	deadline := m.Deadline
	if deadline <= 0 {
		deadline = DeadlineFactor * finish0
	}

	// Realize this run's faults on the plan's resolved tasks, so an
	// overrun scales the delay a task actually runs with. Random solar
	// windows are drawn inside the window where they can matter: up to
	// twice the nominal finish (or the deadline if sooner).
	horizon := deadline
	if h := 2 * finish0; h < horizon {
		horizon = h
	}
	cfg.Faults.draw(&sc.faults, rng, p0.Tasks, m.Faults, horizon)
	faults := &sc.faults
	if faults.fatal {
		res.Failure = FailTask
		return res
	}
	env := buildEnvironment(m.Phases, faults.windows)
	bat := power.Battery{
		MaxPower: m.Battery.MaxPower,
		Capacity: m.Battery.Capacity * (1 - faults.degrade),
	}
	sup := power.Supply{Solar: env.solar, Battery: &bat}

	// The contingency loop. T is the mission time the current segment
	// started; P/S are the segment's resolved problem and schedule
	// (times are segment-relative) and seg its index tables. A residual's
	// tables are built into spare, the scratch tables seg is not using.
	T := model.Time(0)
	P, S := p0, s0
	seg, spare := &nom.seg, &sc.segs[0]
	for {
		if ctx.Err() != nil {
			res.Failure = FailCanceled
			res.Finish = T
			return res
		}
		D := sc.delayedProblem(P, seg.orig, faults.actual)
		until := model.Time(-1)
		tc, hasTC := timingConflict(P, D, seg, S)
		if hasTC {
			until = tc
		}
		rep, execErr := exec.ExecuteUntil(D, S, sup, &bat, T, until)
		res.EnergyCost = bat.Drawn()
		switch {
		case execErr != nil:
			// Power or battery violation at rep.ViolationAt.
		case hasTC && tc < rep.Finish:
			// Replay stopped cleanly at the timing conflict.
		default:
			res.Survived = true
			res.Finish = T + rep.Finish
			res.DeadlineMiss = res.Finish > deadline
			return res
		}
		stop := rep.StoppedAt
		if res.Reschedules >= cfg.MaxReschedules {
			res.Failure = FailRescheduleLimit
			res.Finish = T + stop
			return res
		}
		res.Reschedules++
		// In-flight work is restarted (tasks are non-preemptive;
		// partial progress is lost), so the pending set is both the
		// in-flight and the not-started tasks. In-flight tasks have
		// revealed their true duration: the contingency plans with it
		// rather than re-trusting the nominal delay (which would
		// re-create the same conflict).
		if sc.split(D, S, stop) == 0 {
			// The final second of the mission failed with nothing left
			// to replan around.
			res.Failure = FailBattery
			res.Finish = T + stop
			return res
		}

		// Replan at the violation instant, waiting out blackouts at
		// environment breakpoints when no contingency exists yet.
		cur := T + stop
		adopted := false
		for !adopted {
			if ctx.Err() != nil {
				res.Failure = FailCanceled
				res.Finish = cur
				return res
			}
			q, drops := residualProblem(P, S, seg, faults.actual, sc.pending, sc.inFlight, cur-T, spare)
			q.Pmin = sup.PminAt(cur)
			headroom := 0.0
			// Offer the battery's output only when it can actually
			// sustain it for at least a second (or is untracked).
			if bat.Capacity == 0 || bat.Remaining() > bat.MaxPower {
				headroom = bat.MaxPower
			}
			q.Pmax = q.Pmin + headroom
			if q.Pmax > 0 { // Pmax == 0 means "unconstrained" to the model; never schedule into a blackout
				q2, s2, source, rejects, ok := adopt(ctx, q, cfg, cur)
				res.VerifyRejects += rejects
				if ok {
					if source != pipelineSource {
						res.Fallbacks++
					}
					res.ConstraintDrops += drops
					T, P, S = cur, q2, s2
					seg, spare = spare, &sc.segs[0]
					if seg == spare {
						spare = &sc.segs[1]
					}
					adopted = true
					continue
				}
			}
			// No viable contingency now: idle on base power until the
			// environment next changes.
			next := nextChange(env.breaks, cur)
			if next < 0 || next > deadline {
				res.Failure = FailInfeasible
				res.Finish = cur
				res.EnergyCost = bat.Drawn()
				return res
			}
			for t := cur; t < next; t++ {
				need := P.BasePower - sup.PminAt(t)
				if need <= 0 {
					continue
				}
				if need > bat.MaxPower+1e-9 {
					res.Failure = FailBattery
					res.Finish = t
					res.EnergyCost = bat.Drawn()
					return res
				}
				if err := bat.Draw(need); err != nil {
					res.Failure = FailBattery
					res.Finish = t
					res.EnergyCost = bat.Drawn()
					return res
				}
			}
			res.Waits++
			cur = next
		}
	}
}
