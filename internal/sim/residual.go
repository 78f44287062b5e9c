package sim

import (
	"strconv"

	"repro/internal/model"
	"repro/internal/schedule"
)

// segment is the index view of a segment's resolved problem: a run
// identifies tasks by index only, so it never looks a name up. The
// nominal plan's tables are built once per campaign (nominalSegment);
// a residual's come from its parent's by remapping indices.
//
// The tables stay valid for the plan a replan adopts because the
// adopted view's tasks and constraints are, in order, those of the
// residual the run built: the service keys its cache by Fingerprint,
// which hashes both in order, and EffectiveProblem keeps that order
// (TestAdoptedViewKeepsResidualOrder).
type segment struct {
	// orig maps each task to its nominal task: the index of its
	// realized delay in runFaults.actual.
	orig []int
	// from and to are each constraint's endpoint task indices, -1 for
	// the anchor.
	from, to []int
	// pos maps each task of the parent segment to its index here, -1
	// for a task that was done when the parent stopped.
	pos []int
}

// nominalSegment builds the tables of the nominal plan's resolved
// problem, whose task order is the fault draw's.
func nominalSegment(p *model.Problem) segment {
	idx := p.TaskIndex()
	end := func(name string) int {
		if name == model.Anchor {
			return -1
		}
		return idx[name]
	}
	seg := segment{
		orig: make([]int, len(p.Tasks)),
		from: make([]int, len(p.Constraints)),
		to:   make([]int, len(p.Constraints)),
	}
	for i := range seg.orig {
		seg.orig[i] = i
	}
	for k, c := range p.Constraints {
		seg.from[k], seg.to[k] = end(c.From), end(c.To)
	}
	return seg
}

// timingConflict scans for the earliest instant at which the run's
// overruns break the schedule's structure: a same-resource (or, in a
// resolved heterogeneous problem, same-machine) successor whose
// planned start arrives before its predecessor's actual finish,
// or a finish-to-start separation (Min >= the nominal delay of From)
// whose target starts before From actually finishes. The conflict
// instant is the successor's planned start — the moment the executive
// would discover it cannot start the task and must replan. Starts are
// kept as planned ("start fidelity"): tasks that can start on time do.
// p is the segment's problem and d the same tasks on their realized
// delays.
func timingConflict(p, d *model.Problem, seg *segment, s schedule.Schedule) (model.Time, bool) {
	best := model.Time(0)
	found := false
	consider := func(t model.Time) {
		if !found || t < best {
			best, found = t, true
		}
	}
	for i := range p.Tasks {
		ti := &p.Tasks[i]
		for j := range p.Tasks {
			tj := &p.Tasks[j]
			if i == j || (ti.Resource != tj.Resource && (ti.Machine == "" || ti.Machine != tj.Machine)) {
				continue
			}
			si, sj := s.Start[i], s.Start[j]
			if si > sj || (si == sj && i > j) {
				continue // only scan i as the earlier of the pair
			}
			if si+d.Tasks[i].Delay > sj {
				consider(sj)
			}
		}
	}
	for k, c := range p.Constraints {
		u, v := seg.from[k], seg.to[k]
		if u < 0 || v < 0 || c.Min < p.Tasks[u].Delay {
			continue // not a finish-before-start dependency
		}
		if s.Start[u]+d.Tasks[u].Delay > s.Start[v] {
			consider(s.Start[v])
		}
	}
	return best, found
}

// residualProblem builds the contingency problem at a violation:
// the pending tasks (in flight or not yet started at the stop instant)
// with every constraint rewritten onto the new time axis that starts at
// `elapsed` seconds into the current segment, and writes its index
// tables into next. Completed tasks are fixed history — constraints
// against them become anchor releases/deadlines using their executed
// start times; the anchor itself behaves as a completed task that
// started at 0. A deadline already in the past is unsatisfiable by any
// rescheduler and is dropped; the drop count is returned so campaigns
// can report how much constraint fidelity contingencies cost.
//
// In-flight tasks have revealed their actual delays (actual is indexed
// like the nominal plan's tasks): the contingency plans with their true
// durations — both the task delay itself and the Min of any
// finish-to-start edge out of it — so the same overrun cannot re-break
// the new schedule. Not-started tasks keep the delays p gives them. p
// is the segment's resolved problem and seg its tables; q keeps its
// machines and pins, so a contingency replan runs every task on the
// machine and level the nominal plan chose for it.
func residualProblem(p *model.Problem, s schedule.Schedule, seg *segment, actual []model.Time, pending, inFlight []bool, elapsed model.Time, next *segment) (*model.Problem, int) {
	q := &model.Problem{
		Name:      p.Name + "@t" + strconv.FormatInt(int64(elapsed), 10),
		BasePower: p.BasePower,
		Pmax:      p.Pmax,
		Pmin:      p.Pmin,
		Machines:  p.Machines,
	}
	next.orig, next.from, next.to = next.orig[:0], next.from[:0], next.to[:0]
	next.pos = next.pos[:0]
	for i := range p.Tasks {
		if !pending[i] {
			next.pos = append(next.pos, -1)
			continue
		}
		next.pos = append(next.pos, len(next.orig))
		next.orig = append(next.orig, seg.orig[i])
	}
	q.Tasks = make([]model.Task, 0, len(next.orig))
	// stretch is how much an in-flight task's revealed delay exceeds
	// its nominal one; finish-to-start Mins out of it grow by the same
	// amount (preserving any extra margin the constraint carried).
	stretch := func(i int) model.Time {
		if d := actual[seg.orig[i]]; inFlight[i] && d > p.Tasks[i].Delay {
			return d - p.Tasks[i].Delay
		}
		return 0
	}
	for i, t := range p.Tasks {
		if pending[i] {
			t.Delay += stretch(i)
			q.Tasks = append(q.Tasks, t)
		}
	}
	// start returns the fixed (executed) start time of a non-pending
	// endpoint on the old axis; the anchor started at 0.
	start := func(u int) model.Time {
		if u < 0 {
			return 0
		}
		return s.Start[u]
	}
	add := func(c model.Constraint, u, v int) {
		q.Constraints = append(q.Constraints, c)
		next.from, next.to = append(next.from, u), append(next.to, v)
	}
	q.Constraints = make([]model.Constraint, 0, len(p.Constraints))
	drops := 0
	for k, c := range p.Constraints {
		u, v := seg.from[k], seg.to[k]
		fromPend := u >= 0 && pending[u]
		toPend := v >= 0 && pending[v]
		switch {
		case fromPend && toPend:
			if ext := stretch(u); ext > 0 && c.Min >= p.Tasks[u].Delay {
				c.Min += ext
				if c.HasMax {
					c.Max += ext
				}
			}
			add(c, next.pos[u], next.pos[v])
		case !fromPend && toPend:
			// sigma(to) >= start(from)+Min, on the new axis
			// sigma'(to) >= start(from)+Min-elapsed.
			if rel := start(u) + c.Min - elapsed; rel > 0 {
				add(model.Constraint{From: model.Anchor, To: c.To, Min: rel}, -1, next.pos[v])
			}
			if c.HasMax {
				if d := start(u) + c.Max - elapsed; d >= 0 {
					add(model.Constraint{From: model.Anchor, To: c.To, Min: 0, Max: d, HasMax: true}, -1, next.pos[v])
				} else {
					drops++
				}
			}
		case fromPend && !toPend:
			// start(to) >= sigma(from)+Min inverts to a deadline:
			// sigma'(from) <= start(to)-Min-elapsed.
			if d := start(v) - c.Min - elapsed; d >= 0 {
				add(model.Constraint{From: model.Anchor, To: c.From, Min: 0, Max: d, HasMax: true}, -1, next.pos[u])
			} else {
				drops++
			}
			if c.HasMax {
				// start(to) <= sigma(from)+Max inverts to a release:
				// sigma'(from) >= start(to)-Max-elapsed.
				if rel := start(v) - c.Max - elapsed; rel > 0 {
					add(model.Constraint{From: model.Anchor, To: c.From, Min: rel}, -1, next.pos[u])
				}
			}
		}
	}
	return q, drops
}
