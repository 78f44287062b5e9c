package sched

import (
	"context"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/schedule"
)

// MinPowerMaterializations runs one unrestarted full pipeline on p and
// returns its result together with the number of profile
// materializations the min-power stage made its tracker perform.
func MinPowerMaterializations(p *model.Problem, opts Options) (*Result, int, error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return nil, 0, err
	}
	st := newState(context.Background(), c, opts, nil)
	st.reset(0)
	sigma, err := st.maxPower()
	if err != nil {
		return nil, 0, err
	}
	if st.opts.Compact {
		sigma = st.compact(sigma)
	}
	before := 0
	if st.tr != nil {
		before = st.tr.Materializations()
	}
	if sigma, err = st.minPower(sigma); err != nil {
		return nil, 0, err
	}
	n := 0
	if st.tr != nil {
		n = st.tr.Materializations() - before
	}
	return st.result(sigma), n, nil
}

// CompactWork runs one unrestarted pipeline on p through compaction
// and returns compaction's work: the trials it settled (each by a
// certified peak or by ValidMax), the shifts it accepted, and the
// profile materializations it made its tracker perform. The trials are
// counted through the audit seam, so it must not run inside Audit.
func CompactWork(p *model.Problem, opts Options) (trials, accepted, mats int, err error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return 0, 0, 0, err
	}
	st := newState(context.Background(), c, opts, nil)
	st.reset(0)
	sigma, err := st.maxPower()
	if err != nil {
		return 0, 0, 0, err
	}
	before := 0
	if st.tr != nil {
		before = st.tr.Materializations()
	}
	audit = func(_ *state, q string, _ int, _ model.Time, got any) {
		switch {
		case q == "peakabove" && got.(bool):
			trials++
		case q == "validmax":
			trials++
			if got.(bool) {
				accepted++
			}
		}
	}
	defer func() { audit = nil }()
	st.compact(sigma)
	return trials, accepted, st.tr.Materializations() - before, nil
}

// Audit runs fn with the incremental-core audit installed: every answer
// a stage takes from the tracker, the gap index's stored slacks or the live
// longest-path banks, and every time-validity claim of an accepted gap
// fill, is checked against its from-scratch reference. It returns how
// many answers of each kind were checked and the first wrong one, or
// nil. Audits must not nest.
func Audit(fn func()) (map[string]int, error) {
	a := &auditor{checks: map[string]int{}, refs: map[*state]*refProfile{}}
	audit = a.check
	defer func() { audit = nil }()
	fn()
	return a.checks, a.err
}

// UnboundedPortfolio is the portfolio's reference with no incumbent
// bound: it runs each restart alone, on a fresh state that shares no
// incumbent, through the whole pipeline and folds the outcomes with
// betterIdx, the portfolio's total order. It also returns every
// restart's timing-stage finish (-1 where the timing stage fails), the
// quantity the incumbent bound prunes on.
func UnboundedPortfolio(p *model.Problem, opts Options) (*Result, []model.Time, error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	restarts := opts.Restarts
	if restarts < 1 {
		restarts = 1
	}
	timingFinish := make([]model.Time, restarts)
	var best *Result
	bestIdx := -1
	var firstErr error
	for r := 0; r < restarts; r++ {
		st := newState(context.Background(), c, opts, nil)
		st.reset(r)
		timingFinish[r] = -1
		if sigma, err := st.timing(); err == nil {
			timingFinish[r] = sigma.Finish(st.tasks)
		}
		st = newState(context.Background(), c, opts, nil)
		st.reset(r)
		res, err := st.runTo(stageMinPower)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || betterIdx(res, r, best, bestIdx) {
			best, bestIdx = res, r
		}
	}
	if best == nil {
		return nil, timingFinish, firstErr
	}
	return best, timingFinish, nil
}

// TimingRestart runs restart r's timing stage alone on a fresh state.
func TimingRestart(p *model.Problem, opts Options, r int) (*Result, error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return nil, err
	}
	st := newState(context.Background(), c, opts, nil)
	st.reset(r)
	sigma, err := st.timing()
	if err != nil {
		return nil, err
	}
	return st.result(sigma), nil
}

// finalGraph runs restart 0 of the full pipeline on a fresh state and
// returns its result together with the working graph the run ended
// on, whose longest-path solution the result's schedule must be.
func finalGraph(p *model.Problem, opts Options) (*Result, *graph.Graph, error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return nil, nil, err
	}
	st := newState(context.Background(), c, opts, nil)
	st.reset(0)
	res, err := st.runTo(stageMinPower)
	return res, st.g, err
}

// StreamsBuilt runs opts' restarts in order on one state, as a
// single-worker portfolio does, and reports whether the state built its
// working stream and its perturbation stream.
func StreamsBuilt(p *model.Problem, opts Options) (work, perturb bool, err error) {
	c, err := schedule.Compile(p)
	if err != nil {
		return false, false, err
	}
	st := newState(context.Background(), c, opts, nil)
	for r := range max(opts.Restarts, 1) {
		st.reset(r)
		if _, err := st.runTo(stageMinPower); err != nil {
			return false, false, err
		}
	}
	return st.rng != nil, st.perturbRng != nil, nil
}
