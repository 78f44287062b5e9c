package sched

import (
	"cmp"
	"slices"

	"repro/internal/model"
	"repro/internal/schedule"
)

// compact is the optional left-shift pass between max-power and
// min-power scheduling (Options.Compact): the spike-elimination
// heuristics only ever push tasks later, which can strand idle time
// that a task could legally move back into. Compaction repeatedly
// pulls each task to its earliest start that keeps every timing
// constraint (including the serialization order chosen by the timing
// stage) and the power budget satisfied, until a fixpoint. The finish
// time can only shrink. The working schedule is mutated in place.
//
// The working graph is first rolled back to the timing stage's edges,
// so each task's leftward bound is a walk over its incoming edges; the
// max-power stage's delay and lock edges are the ones compaction
// replaces. After compaction one release edge per task pins the
// compacted starts, so the downstream min-power machinery sees a
// consistent longest-path solution.
func (st *state) compact(sigma schedule.Schedule) schedule.Schedule {
	if st.timingMark == 0 {
		return sigma
	}
	tasks := st.tasks
	pmax := st.c.Prob.Pmax
	st.syncProfile(sigma)
	st.g.Rollback(st.timingMark)

	// fits reports whether the budget holds with v at its tracked start
	// s. A trial the tracker certifies over budget inside v's new
	// interval is settled without materializing, and next is the end of
	// the furthest certified piece: every start before it still covers
	// part of that piece, so none fits and the first fit is unchanged.
	// Every other trial (each acceptance and each near-tie) takes the
	// full materialized ValidMax, O(B) in the B breakpoints, and a
	// rejected one advances by one.
	fits := func(v int, s model.Time) (ok bool, next model.Time) {
		if pmax == 0 {
			return true, s + 1
		}
		end, above := st.tr.CertainlyAbove(v, pmax)
		if audited(st, "peakabove", v, end, above) {
			return false, end
		}
		return audited(st, "validmax", 0, 0, st.tr.ValidMax(pmax)), s + 1
	}
	const maxPasses = 20
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, v := range st.byStart(sigma, len(tasks)) {
			lb := st.compactBound(sigma, v)
			for s := lb; s < sigma.Start[v]; {
				trial := sigma.Start[v]
				sigma.Start[v] = s
				st.tr.Move(v, s)
				ok, next := fits(v, s)
				if ok {
					changed = true
					break
				}
				sigma.Start[v] = trial
				st.tr.Move(v, trial)
				s = next
			}
		}
		if !changed {
			break
		}
	}

	// Pin the compacted starts from below.
	for v := range sigma.Start {
		st.g.AddEdge(st.c.Anchor, v, sigma.Start[v])
	}
	return sigma
}

// compactBound returns the earliest start of v permitted by the
// working graph's edges into v (the timing stage's, during compaction),
// holding every other task fixed.
// Only incoming edges bound a leftward move: outgoing min edges relax
// and outgoing max edges (negative weights) stay satisfied as v moves
// earlier.
func (st *state) compactBound(sigma schedule.Schedule, v int) model.Time {
	lb := model.Time(0)
	for id := st.g.FirstIn(v); id >= 0; id = st.g.NextIn(id) {
		e := st.g.Edge(id)
		var from model.Time
		if e.From != st.c.Anchor {
			from = sigma.Start[e.From]
		}
		if b := from + e.W; b > lb {
			lb = b
		}
	}
	return lb
}

// byStart returns the task indices ordered by (start, index), in a
// state-owned buffer. The key is unique per task, so the unstable sort
// is deterministic.
func (st *state) byStart(sigma schedule.Schedule, n int) []int {
	order := st.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int {
		if sigma.Start[a] != sigma.Start[b] {
			return cmp.Compare(sigma.Start[a], sigma.Start[b])
		}
		return cmp.Compare(a, b)
	})
	st.order = order
	return order
}
