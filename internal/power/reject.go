package power

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/model"
)

// unit is the unit roundoff of float64 round-to-nearest arithmetic:
// fl(x op y) = (x op y)(1+d) with |d| <= unit.
const unit = 0x1p-53

// event is one endpoint of a moved task's old or new interval: the
// signed power it adds to the reference from time t on, and the change
// in the number of moved intervals covering t.
type event struct {
	t   model.Time
	dp  float64
	cov int
}

// roundoff bounds |computed - exact| for every segment power of a
// materialization with steps summed breakpoints, at most terms terms in
// one breakpoint sum, segment magnitudes at most m, and absolute
// contributions summing to abs. Each running-sum addition errs by at
// most unit times its (segment-valued) result, and the breakpoint sums
// together by at most gamma_terms * abs; the factor 2 covers gamma_k
// versus k*unit and the rounding of this expression itself.
func roundoff(steps, terms int, m, abs float64) float64 {
	return 2 * unit * (float64(steps)*m + float64(terms)*abs)
}

// overlayBound is the float error budget of an overlay estimate: the
// power a materialization of the tracked schedule would compute on a
// piece inside the moved intervals is estimated as R + delta, R the
// reference segment power there and delta the summed moved-task
// changes, and
//
//   - ref bounds R against the exact sum of the reference's active
//     contributions: roundoff(steps, terms, max|P|, sum|contrib|) of the
//     reference materialization;
//   - new bounds the tracked schedule's materialized power against its
//     exact sum: the same roundoff with the breakpoint count bounded by
//     the reference's plus two per moved task (roundoff is monotone in
//     it), terms grown by at most two per moved task, and max|P| (mNew)
//     grown by the moved powers; steps is that breakpoint bound;
//   - delta bounds delta's float accumulation: gamma_{#events} *
//     sum|events|.
//
// The bound depends only on the reference and on which tasks are moved,
// not on where they are, so it holds for every placement of the moved
// tasks.
type overlayBound struct {
	ref, new, delta, mNew float64
	steps                 int
}

// overlayErr returns the error budget of the current overlay, whose
// moved tasks have absolute powers summing to movedAbs and contribute
// events interval endpoints.
func (tr *Tracker) overlayErr(movedAbs float64, events int) overlayBound {
	mRef := max(math.Abs(tr.maxP), math.Abs(tr.minP))
	eRef := roundoff(tr.refSteps, tr.refTerms, mRef, tr.absSum)
	mNew := mRef + eRef + movedAbs
	// The new schedule has at most 2k breakpoints the reference lacks.
	steps := len(tr.bk.t) + 2*len(tr.moved) + 1
	return overlayBound{
		ref:   eRef,
		new:   roundoff(steps, tr.refTerms+2*len(tr.moved), mNew, tr.absSum),
		delta: 2 * unit * float64(events) * 4 * movedAbs,
		mNew:  mNew,
		steps: steps,
	}
}

// peak is the margin by which an estimate must clear a power threshold
// for the materialized power to clear it too: twice the summed bound.
func (e overlayBound) peak() float64 { return 2 * (e.ref + e.new + e.delta) }

// certAbove reports whether the estimate q, with margin ePeak, certifies
// that the materialized power is above pmax (the 4*unit*|q| term covers
// the rounding of q itself).
func certAbove(q, ePeak, pmax float64) bool {
	return q-(ePeak+4*unit*math.Abs(q)) > pmax
}

// overlayEvents returns the endpoints of every moved task's old and new
// interval sorted by time, in the tracker's event buffer, and the summed
// absolute power of the moved tasks.
func (tr *Tracker) overlayEvents() ([]event, float64) {
	evs := tr.events[:0]
	var movedAbs float64
	for _, v := range tr.moved {
		p, d := tr.powers[v], tr.delays[v]
		a, b := tr.ref[v], tr.start[v]
		movedAbs += math.Abs(p)
		evs = append(evs,
			event{t: a, dp: -p, cov: 1}, event{t: a + d, dp: p, cov: -1},
			event{t: b, dp: p, cov: 1}, event{t: b + d, dp: -p, cov: -1})
	}
	tr.events = evs
	slices.SortFunc(evs, func(a, b event) int { return cmp.Compare(a.t, b.t) })
	return evs, movedAbs
}

// CertainlyAbove reports whether materializing the current profile
// would certainly fail ValidMax(pmax) inside task v's tracked interval
// [s, s+d), deciding from the reference profile and the overlay alone,
// as CertainlyRejects does and under the same error bound (overlayErr):
// O(k log k) in the k moved tasks plus the reference segments under v's
// interval, with no materialization. When it does, end is the end of
// the furthest piece of v's interval certified above pmax. False means
// undecided, not within budget: the caller then runs ValidMax.
//
// The certified pieces let a first-fit search over v's start skip
// ahead. Let v alone move between trials, from s to a later s' < end.
// Then v still covers [s', end), which lies inside the certified
// piece. There the exact power is unchanged, and the error bound holds
// for every placement of the moved tasks. So that trial fails
// ValidMax too.
//
// Pieces past the reference's finish are skipped (no reference power
// is known there), and so is time past the tracked finish: every task's
// interval ends by it.
func (tr *Tracker) CertainlyAbove(v int, pmax float64) (end model.Time, above bool) {
	if !tr.refOK || len(tr.moved) == 0 {
		return 0, false
	}
	lo, hi := tr.start[v], tr.start[v]+tr.delays[v]
	evs, movedAbs := tr.overlayEvents()
	ePeak := tr.overlayErr(movedAbs, len(evs)).peak()
	segs := tr.prof.Segs
	var delta float64
	cov := 0
	for i := 0; i < len(evs); {
		t := evs[i].t
		for ; i < len(evs) && evs[i].t == t; i++ {
			delta += evs[i].dp
			cov += evs[i].cov
		}
		if cov == 0 {
			delta = 0 // every interval opened so far has closed
			continue
		}
		t0, t1 := max(t, lo), min(evs[i].t, hi)
		if t0 >= t1 {
			continue
		}
		k := tr.segAt(t0)
		if k < 0 {
			continue
		}
		for ; k < len(segs) && segs[k].T0 < t1; k++ {
			if certAbove(segs[k].P+delta, ePeak, pmax) {
				end, above = min(segs[k].T1, t1), true
			}
		}
	}
	return end, above
}

// CertainlyRejects reports whether materializing the current profile
// would certainly fail the gap-fill acceptance test
//
//	ValidMax(pmax) && Profile().Duration() <= tau && Profile().Utilization(pmin) > minU
//
// deciding from the reference profile (the last materialization) and
// the intervals the moved tasks left and entered alone: O(k log k) in
// the k moved tasks plus the reference segments under their intervals,
// with no materialization. False means undecided, not accepted — the
// caller then runs the full test — so every accepted move and every
// near-tie still goes through the exact float path.
//
// The finish time is read exactly, in O(k), from the moved tasks' ends
// and the last reference breakpoint an unmoved task holds. Power and
// utilization are estimated from the reference: inside the moved
// intervals the new power is R + delta; outside them it equals R up to
// rounding. The power's rounding is bounded by overlayErr, and
// FreeEnergyUsed errs by at most gamma_{#segs} * max|min(P, pmin)| *
// tau plus tau times the power error (min is 1-Lipschitz). A rejection
// is reported only when the estimate clears its threshold by at least
// twice the summed bound.
func (tr *Tracker) CertainlyRejects(pmax, pmin float64, tau model.Time, minU float64) bool {
	if !tr.refOK || len(tr.moved) == 0 {
		return false
	}
	newTau := tr.finish()
	if newTau > tau {
		return true
	}
	segs := tr.prof.Segs
	refTau := tr.prof.Duration()
	if newTau != refTau || refTau == 0 || !(pmin > 0) {
		return false
	}

	evs, movedAbs := tr.overlayEvents()
	e := tr.overlayErr(movedAbs, len(evs))
	ePeak := e.peak()

	// Sweep the pieces between consecutive endpoints that some moved
	// interval covers (elsewhere delta is exactly 0), splitting each at
	// the reference segments under it.
	var delta, dFree, absFree, width, qMax float64
	cov, pieces := 0, 0
	for i := 0; i < len(evs); {
		t := evs[i].t
		for ; i < len(evs) && evs[i].t == t; i++ {
			delta += evs[i].dp
			cov += evs[i].cov
		}
		if cov == 0 {
			delta = 0 // every interval opened so far has closed
			continue
		}
		end := evs[i].t // an open interval closes later
		k := tr.segAt(t)
		if k < 0 {
			return false
		}
		for ; k < len(segs) && segs[k].T0 < end; k++ {
			r := segs[k].P
			q := r + delta
			if certAbove(q, ePeak, pmax) {
				return true
			}
			w := float64(min(segs[k].T1, end) - max(segs[k].T0, t))
			term := (min(q, pmin) - min(r, pmin)) * w
			dFree += term
			absFree += math.Abs(term)
			width += w
			qMax = max(qMax, math.Abs(q))
			pieces++
		}
	}

	// Utilization(pmin) <= minU follows from FreeEnergyUsed <= minU*D
	// with D = pmin*tau, the divisor Utilization uses (rounding is
	// monotone and minU is a float).
	if !tr.refFreeOK || tr.refFreePmin != pmin {
		tr.refFree, tr.refFreePmin, tr.refFreeOK = tr.prof.FreeEnergyUsed(pmin), pmin, true
	}
	ft := float64(refTau)
	mClip := max(pmin, e.mNew+e.new)
	eFree := 2*unit*float64(len(segs)+e.steps+1)*mClip*ft + (e.ref+e.new)*ft
	eDFree := width*(2*e.ref+e.delta+unit*qMax) + 2*unit*float64(pieces+2)*absFree
	bound := minU * (pmin * ft)
	slack := bound - (tr.refFree + dFree)
	return slack > 2*(eFree+eDFree+4*unit*(math.Abs(tr.refFree)+math.Abs(dFree)+math.Abs(bound)))
}
