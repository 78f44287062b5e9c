package sched

import (
	"context"

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

// Audit runs fn with the incremental-core audit installed: every answer
// a stage takes from the tracker, the slack cache or the live
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
