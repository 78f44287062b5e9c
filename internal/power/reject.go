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
// intervals the new power is R + delta (R a reference segment power,
// delta the summed moved-task changes); outside them it equals R up to
// rounding. Rounding is bounded rigorously: a materialized power errs
// from the exact sum of its active contributions by at most
// roundoff(steps, terms, max|P|, sum|contrib|), the same for the new
// schedule with its breakpoint count bounded by the reference's plus
// two per moved task (roundoff is monotone in it), terms grown by at
// most two per moved task, and max|P| grown by the moved powers;
// delta's float accumulation errs by at most gamma_{#events} *
// sum|events|; and FreeEnergyUsed errs by at most gamma_{#segs} *
// max|min(P, pmin)| * tau plus tau times the power error (min is
// 1-Lipschitz). A rejection is reported only when the estimate clears
// its threshold by at least twice the summed bound.
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

	mRef := max(math.Abs(tr.maxP), math.Abs(tr.minP))
	eRef := roundoff(tr.refSteps, tr.refTerms, mRef, tr.absSum)
	mNew := mRef + eRef + movedAbs
	// The new schedule has at most 2k breakpoints the reference lacks.
	newSteps := len(tr.bk.t) + 2*len(tr.moved) + 1
	eNew := roundoff(newSteps, tr.refTerms+2*len(tr.moved), mNew, tr.absSum)
	eDelta := 2 * unit * float64(len(evs)) * 4 * movedAbs
	ePeak := 2 * (eRef + eNew + eDelta)

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
			if q-(ePeak+4*unit*math.Abs(q)) > pmax {
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
	mClip := max(pmin, mNew+eNew)
	eFree := 2*unit*float64(len(segs)+newSteps+1)*mClip*ft + (eRef+eNew)*ft
	eDFree := width*(2*eRef+eDelta+unit*qMax) + 2*unit*float64(pieces+2)*absFree
	bound := minU * (pmin * ft)
	slack := bound - (tr.refFree + dFree)
	return slack > 2*(eFree+eDFree+4*unit*(math.Abs(tr.refFree)+math.Abs(dFree)+math.Abs(bound)))
}
