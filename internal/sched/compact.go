package sched

import (
	"sort"

	"repro/internal/graph"
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
// The timing-stage edges are read straight off the graph journal's
// timing prefix and bucketed by head vertex (a CSR index built once per
// pass set), so each task's leftward bound costs O(indegree) instead of
// a scan over the whole edge set.
//
// After compaction the working graph is rebuilt from the timing-stage
// edges plus one release edge per task, so the downstream min-power
// machinery sees a consistent longest-path solution.
func (st *state) compact(sigma schedule.Schedule) schedule.Schedule {
	if st.timingMark == 0 {
		return sigma
	}
	tasks := st.tasks
	pmax := st.c.Prob.Pmax
	st.syncProfile(sigma)

	// CSR index over the timing-prefix edges, bucketed by head vertex.
	// The journal prefix view stays valid: nothing below timingMark is
	// rolled back before the final rebuild.
	edges := st.g.JournalPrefix(st.timingMark)
	nv := st.g.N()
	pos := st.csrPos[:nv+1]
	for i := range pos {
		pos[i] = 0
	}
	for _, e := range edges {
		pos[e.To+1]++
	}
	for v := 1; v <= nv; v++ {
		pos[v] += pos[v-1]
	}
	if cap(st.csrEdge) < len(edges) {
		st.csrEdge = make([]graph.Edge, len(edges))
	}
	ce := st.csrEdge[:len(edges)]
	cur := st.csrCur[:nv]
	copy(cur, pos[:nv])
	for _, e := range edges {
		ce[cur[e.To]] = e
		cur[e.To]++
	}

	// powerOK reports whether the current sigma respects the budget,
	// probing the tracker (which follows every trial shift below) in O(1).
	powerOK := func() bool {
		return pmax == 0 || audited(st, "validmax", 0, 0, st.tr.ValidMax(pmax))
	}
	const maxPasses = 20
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, v := range st.byStart(sigma, len(tasks)) {
			lb := st.compactBound(sigma, pos, ce, v)
			if lb >= sigma.Start[v] {
				continue
			}
			for s := lb; s < sigma.Start[v]; s++ {
				trial := sigma.Start[v]
				sigma.Start[v] = s
				st.tr.Move(v, s)
				if powerOK() {
					changed = true
					break
				}
				sigma.Start[v] = trial
				st.tr.Move(v, trial)
			}
		}
		if !changed {
			break
		}
	}

	// Rebuild the working graph: timing-stage edges plus releases
	// pinning the compacted starts from below.
	st.g.Rollback(st.timingMark)
	for v := range sigma.Start {
		st.g.AddEdge(st.c.Anchor, v, sigma.Start[v])
	}
	return sigma
}

// compactBound returns the earliest start of v permitted by the
// timing-stage constraint edges, holding every other task fixed.
// Only incoming edges bound a leftward move: outgoing min edges relax
// and outgoing max edges (negative weights) stay satisfied as v moves
// earlier.
func (st *state) compactBound(sigma schedule.Schedule, pos []int, ce []graph.Edge, v int) model.Time {
	lb := model.Time(0)
	for _, e := range ce[pos[v]:pos[v+1]] {
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
// state-owned buffer sorted without allocating. The key is unique per
// task, so the unstable sort is deterministic.
func (st *state) byStart(sigma schedule.Schedule, n int) []int {
	order := st.order.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	st.order.order, st.order.start = order, sigma.Start
	sort.Sort(&st.order)
	return order
}

// startSorter is byStart's pointer-receiver sort.Interface.
type startSorter struct {
	order []int
	start []model.Time
}

func (s *startSorter) Len() int      { return len(s.order) }
func (s *startSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *startSorter) Less(i, j int) bool {
	if s.start[s.order[i]] != s.start[s.order[j]] {
		return s.start[s.order[i]] < s.start[s.order[j]]
	}
	return s.order[i] < s.order[j]
}
