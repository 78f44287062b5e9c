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
