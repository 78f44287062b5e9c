package sched

import (
	"cmp"
	"slices"

	"repro/internal/model"
	"repro/internal/schedule"
)

const utilEps = 1e-9

// minPower implements the min-power scheduling algorithm of paper
// Fig. 6. Given a valid schedule it repeatedly scans for power gaps
// (P(t) < Pmin) and delays tasks that finished before the gap so they
// execute inside it, accepting a move only when the new schedule stays
// valid, keeps the finish time (same performance), and strictly
// improves min-power utilization. Scans repeat until a fixpoint; the
// whole process runs once per heuristic combination (scan order x slot
// choice, section 5.3) and the best schedule wins. Since the min power
// constraint is soft, remaining gaps are tolerated.
//
// The working schedule is one flat bank (st.cur) mutated in place: each
// combo restores the entry schedule from a snapshot instead of cloning,
// and the best schedule is kept as a snapshot copied back at the end.
//
// Cancellation aborts the stage with the context's error rather than
// returning the best-so-far schedule: min-power is best-effort, but a
// partially optimized result must never masquerade as the
// deterministic full-pipeline outcome (callers cache by content key).
func (st *state) minPower(sigma schedule.Schedule) (schedule.Schedule, error) {
	pmin := st.c.Prob.Pmin
	if pmin <= 0 {
		return sigma, nil
	}
	// The graph may have been rebuilt (compaction) and the schedule
	// re-derived since the last stage: re-sync the incremental core.
	st.syncProfile(sigma)
	st.dirtySlackAll()
	entryU := st.prof().Utilization(pmin)
	bestU := entryU
	st.bestBuf = append(st.bestBuf[:0], sigma.Start...)
	if bestU >= 1 {
		return sigma, nil
	}
	st.comboBase = append(st.comboBase[:0], sigma.Start...)

	base := st.g.Mark()
	for _, order := range st.opts.ScanOrders {
		for _, slot := range st.opts.SlotChoices {
			st.g.Rollback(base)
			copy(sigma.Start, st.comboBase)
			st.syncProfile(sigma)
			st.dirtySlackAll()
			st.curU = entryU
			st.minPowerCombo(sigma, order, slot)
			if st.ctxErr != nil {
				return schedule.Schedule{}, st.ctxErr
			}
			if st.curU > bestU+utilEps {
				bestU = st.curU
				copy(st.bestBuf, sigma.Start)
			}
			if bestU >= 1 {
				break
			}
		}
	}
	// Re-anchor the working graph on the winning schedule: the per-combo
	// edges were rolled back, so pin every task at its final start.
	st.g.Rollback(base)
	st.dirtySlackAll()
	copy(sigma.Start, st.bestBuf)
	for v := range sigma.Start {
		st.lock(v, sigma.Start[v])
	}
	return sigma, nil
}

// minPowerCombo runs repeated improvement scans under one heuristic
// combination until a scan makes no progress or utilization reaches 1,
// mutating the working schedule in place.
func (st *state) minPowerCombo(sigma schedule.Schedule, order ScanOrder, slot SlotChoice) {
	for scan := 0; scan < st.opts.MaxScans; scan++ {
		if st.pollCancel() != nil {
			return
		}
		st.st.Scans++
		if !st.scanOnce(sigma, order, slot) || st.curU >= 1 {
			return
		}
	}
}

// scanOnce performs one pass over the schedule's power gaps in the
// given order, attempting one accepted move per gap time.
func (st *state) scanOnce(sigma schedule.Schedule, order ScanOrder, slot SlotChoice) bool {
	pmin := st.c.Prob.Pmin
	// Visit the start of every below-Pmin profile segment (not merely
	// every maximal gap): a wide gap can require several moves at
	// different depths, and the profitable insertion point is a segment
	// boundary, not necessarily the gap's left edge.
	times := st.gapTimes[:0]
	for _, seg := range st.prof().Segs {
		if seg.P < pmin {
			times = append(times, seg.T0)
		}
	}
	st.gapTimes = times
	if len(times) == 0 {
		return false
	}
	switch order {
	case ScanReverse:
		for i, j := 0, len(times)-1; i < j; i, j = i+1, j-1 {
			times[i], times[j] = times[j], times[i]
		}
	case ScanRandom:
		st.draws().Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
	}

	improved := false
	for _, t := range times {
		if st.pollCancel() != nil {
			return false
		}
		// Earlier moves may have already filled (or shifted) this gap.
		if st.prof().At(t) >= pmin {
			continue
		}
		if st.fillGapAt(sigma, t, slot) {
			improved = true
			if st.curU >= 1 {
				return true
			}
		}
	}
	return improved
}

// fillGapAt tries to delay one task that finished before t so it is
// active at t, mutating the working schedule in place on acceptance.
// Candidates must have enough slack to reach t (the paper's condition
// Delta(v) >= t - sigma(v) - d(v), strict activity). A move is accepted
// when the delayed schedule is power-valid, finishes no later, and
// strictly improves utilization; it is time-valid by construction (the
// incremental longest-path update either fails on a positive cycle or
// leaves cur satisfying every live constraint edge). A rejected move is
// rolled back exactly via the delay's undo journal.
func (st *state) fillGapAt(sigma schedule.Schedule, t model.Time, slot SlotChoice) bool {
	prob := st.c.Prob
	curU := st.curU
	// The profile covers [0, Finish), so its extent is the finish time.
	tau := st.prof().Duration()

	// End of the gap beginning at t, read only by the finish-at-gap-end
	// slot and answered by walking the tracker's segments from t.
	gapEnd := t + 1
	if slot == SlotFinishAtGapEnd {
		gapEnd = audited(st, "runendbelow", 0, t, st.tr.RunEndBelow(t, prob.Pmin))
	}

	for _, v := range st.gapCandidates(sigma, t) {
		if st.pollCancel() != nil {
			return false
		}
		d := st.tasks[v].Delay
		sl := st.slackOf(sigma, v)
		// Latest start keeping the task active at t, clipped by slack.
		latest := t
		if m := sigma.Start[v] + sl; m < latest {
			latest = m
		}
		earliest := t - d + 1 // earliest start that is active at t
		if latest < earliest {
			continue
		}
		var newStart model.Time
		switch slot {
		case SlotFinishAtGapEnd:
			newStart = gapEnd - d
		case SlotRandom:
			newStart = earliest + model.Time(st.draws().Intn(latest-earliest+1))
		default: // SlotStartAtGap
			newStart = t
		}
		if newStart > latest {
			newStart = latest
		}
		if newStart < earliest {
			newStart = earliest
		}
		if newStart <= sigma.Start[v] {
			continue
		}

		cp := st.g.Mark()
		changed, ok := st.delay(v, newStart)
		// The tracker settles most rejections from the moved tasks'
		// intervals alone; the rest, and every acceptance, take the
		// full materialized check.
		if ok && !audited(st, "rejects", v, tau, st.tr.CertainlyRejects(prob.Pmax, prob.Pmin, tau, curU+utilEps)) {
			np := st.prof()
			if audited(st, "validmax", 0, 0, st.tr.ValidMax(prob.Pmax)) && np.Duration() <= tau {
				if u := np.Utilization(prob.Pmin); u > curU+utilEps {
					// The successful delay left cur a longest-path solution
					// of the live graph, which satisfies every live edge:
					// the schedule is time-valid by construction.
					audited(st, "timevalid", 0, 0, true)
					st.st.Moves++
					st.curU = u
					return true
				}
			}
		}
		st.g.Rollback(cp)
		st.undoDelay(changed)
		st.st.Rejected++
	}
	return false
}

// gapCand is a gap-fill candidate with its selection keys.
type gapCand struct {
	v      int
	power  float64
	finish model.Time
}

// cmpGapCand is the candidate selection order: descending power (a
// bigger consumer fills more of the gap), then latest finish, then
// index. The index key must be explicit: the index hands candidates
// over in bucket order, which is not index order.
func cmpGapCand(a, b gapCand) int {
	switch {
	case a.power != b.power:
		if a.power > b.power {
			return -1
		}
		return 1
	case a.finish != b.finish:
		if a.finish > b.finish {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.v, b.v)
}

// gapCandidates returns the tasks that finish at or before t and have
// enough slack to be delayed into activity at t, in cmpGapCand order,
// answered by the stabbing index (gapIndex) rather than a scan of all
// tasks. The result lives in state-owned buffers reused across calls.
func (st *state) gapCandidates(sigma schedule.Schedule, t model.Time) []int {
	st.refreshGapIndex(sigma)
	ids := st.gi.stab(t, st.gapOrder[:0])
	cs := st.gapCands[:0]
	for _, v := range ids {
		cs = append(cs, gapCand{v: v, power: st.tasks[v].Power, finish: st.gi.ent[v].fin})
	}
	slices.SortFunc(cs, cmpGapCand)
	out := ids[:0]
	for _, c := range cs {
		out = append(out, c.v)
	}
	st.gapCands, st.gapOrder = cs, out
	return audited(st, "gapcands", 0, t, out)
}
