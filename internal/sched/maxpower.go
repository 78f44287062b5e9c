package sched

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/schedule"
)

// maxPower implements the max-power scheduling algorithm of paper
// Fig. 4. Starting from a time-valid schedule, it scans the power
// profile for the first power spike, delays active tasks at the spike
// (largest slack first) until the profile drops under Pmax, and
// repeats until no spike remains. When a zero-slack task must be
// delayed (case 2 of the paper's heuristics) the remaining simultaneous
// tasks are locked at their start times so the rescheduling pass cannot
// disturb them; if a lock or delay produces an infeasible graph it is
// rolled back and another choice is tried.
//
// A Pmax of 0 means "no power budget": the time-valid schedule is
// returned unchanged.
func (st *state) maxPower() (schedule.Schedule, error) {
	sigma, err := st.timing()
	if err != nil {
		return schedule.Schedule{}, err
	}
	// The timing finish lower-bounds this restart's final finish time
	// (every later stage only delays tasks), so a restart the portfolio
	// incumbent strictly dominates is abandoned here, before the
	// expensive power stages.
	if st.pruned(sigma) {
		return schedule.Schedule{}, errPruned
	}
	pmax := st.c.Prob.Pmax
	if pmax == 0 {
		return sigma, nil
	}
	st.syncProfile(sigma)

	for round := 0; ; round++ {
		if err := st.pollCancel(); err != nil {
			return schedule.Schedule{}, err
		}
		if round > st.opts.MaxSpikeRounds {
			return schedule.Schedule{}, fmt.Errorf("sched: spike elimination exceeded %d rounds", st.opts.MaxSpikeRounds)
		}
		t, spiked := st.firstSpike(pmax)
		if !spiked {
			return sigma, nil
		}
		st.st.SpikeRounds++
		if err := st.fixSpike(sigma, t); err != nil {
			return schedule.Schedule{}, err
		}
	}
}

// firstSpike returns the start of the earliest over-budget interval
// (Spikes(pmax)[0].T0), answered from the tracker's segment index in
// O(log m) without materializing the interval list.
func (st *state) firstSpike(pmax float64) (model.Time, bool) {
	t, ok := st.tr.FirstAbove(pmax)
	return t, audited(st, "firstabove", 0, t, ok)
}

// fixSpike removes the power spike at time t by delaying simultaneous
// tasks, mutating the working schedule in place. Tasks are chosen by
// descending slack; a chosen task is delayed by at most its own
// execution delay (the paper's delay-distance upper bound), further
// bounded by its slack when the slack is positive. Delays are realized
// as anchor edges followed by an incremental longest-path update, so
// successors shift consistently; an infeasible delay is rolled back and
// the task is skipped. The loop re-selects among the active tasks until
// P(t) <= Pmax, so a task with a capped delay distance can be delayed
// again in a later step. Each selection is a single max-scan over the
// task set under the (slack desc, power desc, index asc) order — no
// sorted active list is materialized per iteration.
func (st *state) fixSpike(sigma schedule.Schedule, t model.Time) error {
	pmax := st.c.Prob.Pmax
	n := st.c.NumTasks()
	tasks := st.tasks
	rescheduled := false

	// Tasks whose delay proved infeasible at this spike, marked in the
	// reusable epoch-stamped set.
	st.skipEpoch++
	skipped := st.skipGen
	for iter := 0; st.prof().At(t) > pmax; iter++ {
		if err := st.pollCancel(); err != nil {
			return err
		}
		if iter > st.opts.MaxSpikeRounds {
			return fmt.Errorf("sched: spike at t=%d did not converge after %d delays", t, iter)
		}
		// Pick the max-priority eligible task: active at t, not yet
		// proven infeasible to delay here, largest slack first (the
		// paper's EXTRACT MAX), ties by descending power then index.
		v := -1
		var vSlack model.Time
		for u := 0; u < n; u++ {
			if skipped[u] == st.skipEpoch {
				continue
			}
			if !(sigma.Start[u] <= t && t < sigma.Start[u]+tasks[u].Delay) {
				continue
			}
			sl := st.slackOf(sigma, u)
			if v < 0 || st.slackedBefore(slackedTask{v: u, slack: sl}, slackedTask{v: v, slack: vSlack}) {
				v, vSlack = u, sl
			}
		}
		if v < 0 {
			return fmt.Errorf("%w: cannot remove power spike at t=%d (%.4g W > Pmax %.4g W)",
				ErrInfeasible, t, st.prof().At(t), pmax)
		}

		// Delay distance heuristic: aim past the end of the profile
		// segment causing the spike (keeping starts aligned to existing
		// event boundaries), capped by d(v) (the paper's upper bound);
		// when v has positive slack, also capped by the slack so the
		// schedule stays time-valid without rescheduling.
		need := audited(st, "runendabove", 0, t, st.tr.RunEndAbove(t, pmax)) - sigma.Start[v]
		dd := tasks[v].Delay
		if dd > need {
			dd = need
		}
		if vSlack > 0 && dd > vSlack {
			dd = vSlack
		}
		if vSlack <= 0 {
			rescheduled = true
		}
		if dd < 1 {
			dd = 1
		}

		if _, ok := st.delay(v, sigma.Start[v]+dd); !ok {
			skipped[v] = st.skipEpoch
			st.st.Backtracks++
		}
	}

	// Lock the start times of the tasks that stayed at the spike time,
	// so the subsequent rescheduling cannot push them back into a
	// spike. The spike loop above exits immediately after the delay
	// that cleared the spike (failed delays change nothing), so the
	// active set here is exactly the paper's case (2) lock-candidate
	// set captured after the last successful delay. Locks that would
	// make the graph infeasible are undone; they are a heuristic, not a
	// requirement.
	if rescheduled && !st.opts.DisableLocks {
		for _, cand := range st.activeBySlack(sigma, t) {
			cp := st.g.Mark()
			st.lock(cand.v, sigma.Start[cand.v])
			if !st.g.LongestFromInto(st.feasBuf, st.c.Anchor) {
				st.g.Rollback(cp)
				st.dirtySlack(cand.v) // v lost the just-added outgoing lock edge
				st.st.Backtracks++
			}
		}
	}
	return nil
}

type slackedTask struct {
	v     int
	slack model.Time
}

// activeBySlack returns the tasks active at t ordered by decreasing
// slack (the paper's EXTRACT MAX order). Ties are broken by decreasing
// power — moving the biggest consumer out of the spike clears it with
// the fewest delays — then by task index for determinism. The result
// lives in a state-owned buffer, sorted by insertion (active sets are
// small and index-ordered on arrival, and the total-order key makes the
// outcome identical to any comparison sort).
func (st *state) activeBySlack(sigma schedule.Schedule, t model.Time) []slackedTask {
	out := st.active[:0]
	tasks := st.tasks
	for v := range tasks {
		if sigma.Start[v] <= t && t < sigma.Start[v]+tasks[v].Delay {
			out = append(out, slackedTask{v: v, slack: st.slackOf(sigma, v)})
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && st.slackedBefore(out[j], out[j-1]); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	st.active = out
	return out
}

// slackedBefore is the strict (slack desc, power desc, index asc)
// total order shared by activeBySlack and fixSpike's max-scan.
func (st *state) slackedBefore(a, b slackedTask) bool {
	if a.slack != b.slack {
		return a.slack > b.slack
	}
	pa, pb := st.tasks[a.v].Power, st.tasks[b.v].Power
	if pa != pb {
		return pa > pb
	}
	return a.v < b.v
}
