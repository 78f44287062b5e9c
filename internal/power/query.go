package power

import (
	"sort"

	"repro/internal/model"
)

// segAt returns the index of the materialized segment containing t, or
// -1 when t falls outside [0, tau).
func (tr *Tracker) segAt(t model.Time) int {
	segs := tr.prof.Segs
	i := sort.Search(len(segs), func(i int) bool { return segs[i].T1 > t })
	if i < len(segs) && segs[i].T0 <= t {
		return i
	}
	return -1
}

// ValidMax reports whether the tracked profile respects the max power
// budget. Identical to Profile().Valid(pmax) — a profile is invalid iff
// its exact peak exceeds pmax — but O(1) after materialization: the
// peak is maintained during the segment sweep.
func (tr *Tracker) ValidMax(pmax float64) bool {
	tr.Profile()
	return !(tr.maxP > pmax)
}

// FirstAbove returns the start of the earliest profile segment whose
// power strictly exceeds pmax (the first spike's start), or false when
// the profile never exceeds pmax. The walk from segment 0 runs only
// when the peak, kept by the sweep, shows that a spike exists.
func (tr *Tracker) FirstAbove(pmax float64) (model.Time, bool) {
	tr.Profile()
	if !(tr.maxP > pmax) {
		return 0, false
	}
	for _, sg := range tr.prof.Segs {
		if sg.P > pmax {
			return sg.T0, true
		}
	}
	return 0, false
}

// RunEndAbove returns the end of the maximal contiguous run of
// over-budget segments (P > pmax) containing time t, or t+1 when the
// profile at t does not exceed pmax. This is the spike-interval end
// query of the max-power stage: profile segments are contiguous, so a
// maximal over-budget run is exactly a maximal consecutive sequence of
// over-budget segments, walked forward from the one holding t.
func (tr *Tracker) RunEndAbove(t model.Time, pmax float64) model.Time {
	tr.Profile()
	segs := tr.prof.Segs
	i := tr.segAt(t)
	if i < 0 || !(segs[i].P > pmax) {
		return t + 1
	}
	for i+1 < len(segs) && segs[i+1].P > pmax {
		i++
	}
	return segs[i].T1
}

// RunEndBelow returns the end of the maximal contiguous run of
// below-pmin segments (P < pmin) containing time t, or t+1 when the
// profile at t is not below pmin. This is the gap-interval end query of
// the min-power stage.
func (tr *Tracker) RunEndBelow(t model.Time, pmin float64) model.Time {
	tr.Profile()
	segs := tr.prof.Segs
	i := tr.segAt(t)
	if i < 0 || !(segs[i].P < pmin) {
		return t + 1
	}
	for i+1 < len(segs) && segs[i+1].P < pmin {
		i++
	}
	return segs[i].T1
}
