package sched

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/schedule"
)

// timing implements the time-constrained scheduling algorithm of paper
// Fig. 3. It traverses the constraint graph topologically, visiting
// one candidate task at a time; visiting a candidate c serializes every
// not-yet-visited task sharing c's resource after c (edge c -> u with
// weight d(c)). If the added edges create a positive cycle the choice
// is undone and another topological ordering is attempted, so the
// search finds a time-valid schedule whenever one exists (within the
// MaxBacktracks budget). Start times are the longest-path distances
// from the anchor over the final graph.
//
// The search maintains the longest-path solution incrementally: each
// serialization edge is applied with graph.AddEdgeRelaxUndo, which
// updates only the shifted cone of successors, detects the positive
// cycle that would make the choice infeasible, and journals every
// overwritten distance entry — so backtracking replays the journal
// backwards instead of restoring an O(n) per-depth snapshot, and a
// visit step costs O(cone) in both directions. Candidates are taken in
// (current ASAP start, priority) order from an indexed heap of the
// unvisited tasks (taskHeap), re-keyed one journal entry at a time as
// dist moves: the distance vector is restored between sibling
// candidates, so the keys are fixed for the whole loop and "smallest
// key strictly greater than the last tried key" enumerates exactly the
// sorted order without materializing or sorting a candidate list. A
// visit step therefore costs O((cone + siblings) log n) plus c's
// resource members, not O(n).
func (st *state) timing() (schedule.Schedule, error) {
	n := st.c.NumTasks()
	dist := st.dist
	if !st.g.LongestFromInto(dist, st.c.Anchor) {
		return schedule.Schedule{}, fmt.Errorf("%w: timing constraints contain a positive cycle", ErrInfeasible)
	}

	visited := st.visited
	for i := range visited {
		visited[i] = false
	}
	st.undo = st.undo[:0]
	q := &st.heap
	q.init(dist, st.prio)

	var visit func(count int) bool
	visit = func(count int) bool {
		if count == n {
			return true
		}
		last := -1
		for {
			// The next candidate: the unvisited task with the smallest
			// key (dist, prio) strictly greater than the last tried
			// sibling's. prio is a permutation, so keys are unique and
			// the enumeration reproduces the sorted candidate order.
			c := audited(st, "select", last, 0, q.above(last))
			if c < 0 {
				return false
			}
			last = c
			for _, ci := range st.choiceOrder(count, c, visited, dist) {
				// Cooperative cancellation: once the poll latches an
				// error every recursion level bails on its next try, so
				// the whole search unwinds within one check interval.
				if st.pollCancel() != nil {
					return false
				}
				ch := st.c.Choices[c][ci]
				cp := st.g.Mark()
				um := len(st.undo)
				res := st.c.Res[c]
				d := ch.Delay
				feasible := true
				// Serialize c after every traversed task sharing its
				// machine, and every untraversed same-resource task after
				// c. Machine mates on c's own resource are skipped: the
				// earlier task's resource edge into c already carries the
				// same weight, which is why a problem whose machines
				// mirror its resources schedules identically to one with
				// no machines at all.
				if ch.Machine >= 0 {
					for u := 0; u < n; u++ {
						if visited[u] && st.assign[u].Machine == ch.Machine && st.c.Res[u] != res {
							if st.undo, feasible = st.g.AddEdgeRelaxUndo(dist, u, c, st.tasks[u].Delay, st.undo); !feasible {
								break
							}
						}
					}
				}
				if feasible {
					for _, u := range st.c.ResMembers(res) {
						if u != c && !visited[u] {
							if st.undo, feasible = st.g.AddEdgeRelaxUndo(dist, c, u, d, st.undo); !feasible {
								break
							}
						}
					}
				}
				feasible = audited(st, "visit", c, 0, feasible)
				if feasible {
					if st.c.Hetero {
						st.assign[c] = model.Choice{Machine: ch.Machine, Level: ch.Level}
						st.tasks[c].Delay = ch.Delay
						st.tasks[c].Power = ch.Power
					}
					visited[c] = true
					q.remove(c)
					for _, e := range st.undo[um:] {
						q.set(e.V, dist[e.V])
					}
					if visit(count + 1) {
						return true
					}
					visited[c] = false
					q.push(c, dist[c])
				}
				// Restore dist one entry at a time, each with its own heap
				// fix (an infeasible try never re-keyed the heap, so its
				// entries are no-ops there).
				st.g.Rollback(cp)
				for i := len(st.undo) - 1; i >= um; i-- {
					e := st.undo[i]
					dist[e.V] = e.Old
					q.set(e.V, e.Old)
				}
				st.undo = st.undo[:um]
				audited(st, "backtrack", c, 0, true)
				st.st.Backtracks++
				if st.st.Backtracks > st.opts.MaxBacktracks {
					return false
				}
			}
		}
	}

	if !visit(0) {
		if st.ctxErr != nil {
			return schedule.Schedule{}, st.ctxErr
		}
		if st.st.Backtracks > st.opts.MaxBacktracks {
			return schedule.Schedule{}, fmt.Errorf("sched: timing search exceeded %d backtracks", st.opts.MaxBacktracks)
		}
		return schedule.Schedule{}, fmt.Errorf("%w: no serialization order yields a time-valid schedule", ErrInfeasible)
	}

	if !st.g.LongestFromInto(st.cur, st.c.Anchor) {
		// Unreachable: every visited step checked feasibility.
		return schedule.Schedule{}, fmt.Errorf("%w: final graph has a positive cycle", ErrInfeasible)
	}
	st.timingMark = st.g.Mark()
	return schedule.Schedule{Start: st.cur[:n:n]}, nil
}

// choiceOrder returns the order — as indices into st.c.Choices[c] — in
// which the search tries task c's (machine, level) choices: earliest
// estimated finish first. A choice's estimate is max(current ASAP start
// of c, latest completion of the visited tasks on the choice's machine)
// plus its effective delay; the second term is exactly the bound the
// machine serialization edges will enforce, so the rule steers the
// search away from piling every task onto the fastest machine when a
// slower idle one finishes it sooner. Ties keep the choice list's own
// (delay, power, machine, level) preference order. A degenerate problem
// has exactly one choice per task, so the ordering degenerates to the
// single index 0 and the search is the paper's.
//
// The returned slice is depth's reusable buffer, invalidated by the
// next call at the same depth (the recursion below runs at deeper
// depths and cannot clobber it).
func (st *state) choiceOrder(depth, c int, visited []bool, dist []int) []int {
	choices := st.c.Choices[c]
	ord := st.choiceOrdBuf(depth)
	for i := range choices {
		ord = append(ord, i)
	}
	st.choiceOrdBufs[depth] = ord
	if len(choices) <= 1 {
		return ord
	}
	// Latest completion per machine over the visited tasks: the bound
	// the machine serialization edges of a machine-sharing choice would
	// impose on c's start.
	avail := st.machEFT
	for m := range avail {
		avail[m] = 0
	}
	for u := 0; u < st.c.NumTasks(); u++ {
		if visited[u] && st.assign[u].Machine >= 0 {
			if end := dist[u] + st.tasks[u].Delay; end > avail[st.assign[u].Machine] {
				avail[st.assign[u].Machine] = end
			}
		}
	}
	key := st.choiceKey[:0]
	for _, ch := range choices {
		start := dist[c]
		if ch.Machine >= 0 && avail[ch.Machine] > start {
			start = avail[ch.Machine]
		}
		key = append(key, start+ch.Delay)
	}
	st.choiceKey = key
	// Insertion sort: choice lists are tiny, and its stability is what
	// preserves the preference order on ties.
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && key[ord[j]] < key[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ord
}

// choiceOrdBuf returns depth's reusable choice-ordering buffer, emptied.
func (st *state) choiceOrdBuf(depth int) []int {
	for len(st.choiceOrdBufs) <= depth {
		st.choiceOrdBufs = append(st.choiceOrdBufs, []int(nil))
	}
	return st.choiceOrdBufs[depth][:0]
}
