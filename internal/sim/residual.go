package sim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/schedule"
)

// timingConflict scans for the earliest instant at which the run's
// overruns break the schedule's structure: a same-resource (or, in a
// resolved heterogeneous problem, same-machine) successor whose
// planned start arrives before its predecessor's actual finish,
// or a finish-to-start separation (Min >= the nominal delay of From)
// whose target starts before From actually finishes. The conflict
// instant is the successor's planned start — the moment the executive
// would discover it cannot start the task and must replan. Starts are
// kept as planned ("start fidelity"): tasks that can start on time do.
// idx must be p.TaskIndex() — callers in hot loops memoize it.
func timingConflict(p *model.Problem, idx map[string]int, actual map[string]model.Time, s schedule.Schedule) (model.Time, bool) {
	best := model.Time(0)
	found := false
	consider := func(t model.Time) {
		if !found || t < best {
			best, found = t, true
		}
	}
	dur := func(name string, nominal model.Time) model.Time {
		if d, ok := actual[name]; ok && d > nominal {
			return d
		}
		return nominal
	}
	for i := range p.Tasks {
		ti := &p.Tasks[i]
		for j := range p.Tasks {
			tj := &p.Tasks[j]
			if i == j || (ti.Resource != tj.Resource && (ti.Machine == "" || ti.Machine != tj.Machine)) {
				continue
			}
			si, sj := s.Start[i], s.Start[j]
			if si > sj || (si == sj && ti.Name >= tj.Name) {
				continue // only scan i as the earlier of the pair
			}
			if si+dur(ti.Name, ti.Delay) > sj {
				consider(sj)
			}
		}
	}
	for _, c := range p.Constraints {
		if c.From == model.Anchor || c.To == model.Anchor {
			continue
		}
		u, v := idx[c.From], idx[c.To]
		if c.Min < p.Tasks[u].Delay {
			continue // not a finish-before-start dependency
		}
		su, sv := s.Start[u], s.Start[v]
		if su+dur(c.From, p.Tasks[u].Delay) > sv {
			consider(sv)
		}
	}
	return best, found
}

// residualProblem builds the contingency problem at a violation:
// the pending tasks (in flight or not yet started at the stop instant)
// with every constraint rewritten onto the new time axis that starts at
// `elapsed` seconds into the current segment. Completed tasks are fixed
// history — constraints against them become anchor releases/deadlines
// using their executed start times; the anchor itself behaves as a
// completed task that started at 0. A deadline already in the past is
// unsatisfiable by any rescheduler and is dropped; the drop count is
// returned so campaigns can report how much constraint fidelity
// contingencies cost.
//
// promote carries the *revealed* actual delays of tasks the executive
// has watched overrun (the in-flight set): the contingency plans with
// their true durations — both the task delay itself and the Min of any
// finish-to-start edge out of it — so the same overrun cannot re-break
// the new schedule. Unrevealed future tasks keep the delays p gives
// them. p is the segment's resolved problem, and q keeps its machines
// and pins, so a contingency replan runs every task on the machine and
// level the nominal plan chose for it.
func residualProblem(p *model.Problem, s schedule.Schedule, pending []string, elapsed model.Time, promote map[string]model.Time) (*model.Problem, int) {
	pend := make(map[string]bool, len(pending))
	for _, n := range pending {
		pend[n] = true
	}
	idx := p.TaskIndex()
	q := &model.Problem{
		Name:      fmt.Sprintf("%s@t%d", p.Name, elapsed),
		BasePower: p.BasePower,
		Pmax:      p.Pmax,
		Pmin:      p.Pmin,
		Machines:  p.Machines,
	}
	// stretch is how much a promoted task's revealed delay exceeds its
	// nominal one; finish-to-start Mins out of it grow by the same
	// amount (preserving any extra margin the constraint carried).
	stretch := make(map[string]model.Time)
	for _, t := range p.Tasks {
		if !pend[t.Name] {
			continue
		}
		if d, ok := promote[t.Name]; ok && d > t.Delay {
			stretch[t.Name] = d - t.Delay
			t.Delay = d
		}
		q.Tasks = append(q.Tasks, t)
	}
	// start returns the fixed (executed) start time of a non-pending
	// endpoint on the old axis; the anchor started at 0.
	start := func(name string) model.Time {
		if name == model.Anchor {
			return 0
		}
		return s.Start[idx[name]]
	}
	drops := 0
	for _, c := range p.Constraints {
		fromPend := c.From != model.Anchor && pend[c.From]
		toPend := c.To != model.Anchor && pend[c.To]
		switch {
		case fromPend && toPend:
			if ext := stretch[c.From]; ext > 0 && c.Min >= p.Tasks[idx[c.From]].Delay {
				c.Min += ext
				if c.HasMax {
					c.Max += ext
				}
			}
			q.Constraints = append(q.Constraints, c)
		case !fromPend && toPend:
			// sigma(to) >= start(from)+Min, on the new axis
			// sigma'(to) >= start(from)+Min-elapsed.
			if rel := start(c.From) + c.Min - elapsed; rel > 0 {
				q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.To, Min: rel})
			}
			if c.HasMax {
				if d := start(c.From) + c.Max - elapsed; d >= 0 {
					q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.To, Min: 0, Max: d, HasMax: true})
				} else {
					drops++
				}
			}
		case fromPend && !toPend:
			// start(to) >= sigma(from)+Min inverts to a deadline:
			// sigma'(from) <= start(to)-Min-elapsed.
			if d := start(c.To) - c.Min - elapsed; d >= 0 {
				q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.From, Min: 0, Max: d, HasMax: true})
			} else {
				drops++
			}
			if c.HasMax {
				// start(to) <= sigma(from)+Max inverts to a release:
				// sigma'(from) >= start(to)-Max-elapsed.
				if rel := start(c.To) - c.Max - elapsed; rel > 0 {
					q.Constraints = append(q.Constraints, model.Constraint{From: model.Anchor, To: c.From, Min: rel})
				}
			}
		}
	}
	return q, drops
}
