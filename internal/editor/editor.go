// Package editor implements the interactive side of the power-aware
// Gantt chart described in paper section 4.3: "designers can manually
// intervene with the automated scheduling process by dragging and
// locking the bins to alternative time slots in the time view, while
// observing the results in the power view interactively."
//
// A Session holds a problem, a current schedule, and a set of locked
// tasks. Moves are validated immediately (hard constraints only — the
// soft min-power goal may be violated freely, exactly as in the paper);
// Reschedule re-runs the automated pipeline with the locked tasks
// pinned at their chosen slots; every mutation is undoable.
package editor

import (
	"fmt"
	"sort"

	"repro/internal/gantt"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// Session is an interactive scheduling session.
type Session struct {
	prob   *model.Problem
	opts   sched.Options
	cur    schedule.Schedule
	locked map[string]bool
	undo   []snapshot
	redo   []snapshot
}

type snapshot struct {
	start  []model.Time
	locked map[string]bool
}

// New starts a session from the automated pipeline's schedule. The
// session edits the plan's resolved problem (sched.Result's
// EffectiveProblem): a heterogeneous problem's machine and level
// choices are fixed by that first run, and Reschedule keeps them.
func New(p *model.Problem, opts sched.Options) (*Session, error) {
	r, err := sched.Run(p, opts)
	if err != nil {
		return nil, err
	}
	return NewWithSchedule(r.EffectiveProblem(), r.Schedule, opts)
}

// NewWithSchedule starts a session from an existing schedule, which
// must be valid. A heterogeneous p must be resolved (see verify.Check);
// an unresolved one is refused.
func NewWithSchedule(p *model.Problem, s schedule.Schedule, opts sched.Options) (*Session, error) {
	if rep := verify.Check(p, s); !rep.OK() {
		return nil, fmt.Errorf("editor: initial schedule invalid: %w", rep.Err())
	}
	return &Session{
		prob:   p,
		opts:   opts,
		cur:    s.Clone(),
		locked: make(map[string]bool),
	}, nil
}

// Problem returns the session's problem: for a session started by New,
// the resolved problem of its first plan.
func (s *Session) Problem() *model.Problem { return s.prob }

// Schedule returns a copy of the current schedule.
func (s *Session) Schedule() schedule.Schedule { return s.cur.Clone() }

// StartOf returns the current start time of the named task.
func (s *Session) StartOf(task string) (model.Time, error) {
	i, err := s.index(task)
	if err != nil {
		return 0, err
	}
	return s.cur.Start[i], nil
}

// Move drags a task bin to a new start time. The move is rejected when
// the task is locked or when the resulting schedule violates a hard
// constraint (timing, resource serialization, or the max power budget).
// Min-power gaps do not block a move.
func (s *Session) Move(task string, newStart model.Time) error {
	i, err := s.index(task)
	if err != nil {
		return err
	}
	if s.locked[task] {
		return fmt.Errorf("editor: task %q is locked", task)
	}
	if newStart == s.cur.Start[i] {
		return nil
	}
	trial := s.cur.Clone()
	trial.Start[i] = newStart
	if rep := verify.Check(s.prob, trial); !rep.OK() {
		return fmt.Errorf("editor: cannot move %q to %d: %w", task, newStart, rep.Err())
	}
	s.commit()
	s.cur = trial
	return nil
}

// Lock pins a task at its current slot: Move refuses it and Reschedule
// keeps it fixed (the "locking the bins" gesture).
func (s *Session) Lock(task string) error {
	if _, err := s.index(task); err != nil {
		return err
	}
	if s.locked[task] {
		return nil
	}
	s.commit()
	s.locked[task] = true
	return nil
}

// Unlock releases a locked task.
func (s *Session) Unlock(task string) error {
	if _, err := s.index(task); err != nil {
		return err
	}
	if !s.locked[task] {
		return nil
	}
	s.commit()
	delete(s.locked, task)
	return nil
}

// Locked lists the locked task names, sorted.
func (s *Session) Locked() []string {
	out := make([]string, 0, len(s.locked))
	for name := range s.locked {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Reschedule re-runs the automated pipeline with every locked task
// pinned at its current slot, letting the scheduler rearrange the rest.
// The session's schedule is replaced on success and untouched on
// failure.
func (s *Session) Reschedule() error {
	p := s.prob.Clone()
	for name := range s.locked {
		i, err := s.index(name)
		if err != nil {
			return err
		}
		at := s.cur.Start[i]
		p.Release(name, at)
		p.Deadline(name, at)
	}
	r, err := sched.Run(p, s.opts)
	if err != nil {
		return fmt.Errorf("editor: reschedule with %d locks: %w", len(s.locked), err)
	}
	if rep := verify.Check(s.prob, r.Schedule); !rep.OK() {
		return fmt.Errorf("editor: rescheduled result invalid: %w", rep.Err())
	}
	s.commit()
	s.cur = r.Schedule.Clone()
	return nil
}

// MoveAndReschedule drags a task to a slot that may be infeasible under
// the current placement of the other tasks, then lets the automated
// pipeline repair the schedule around it: the dragged task and every
// locked task are pinned, everything else is rescheduled. The session
// is unchanged on failure.
func (s *Session) MoveAndReschedule(task string, newStart model.Time) error {
	if _, err := s.index(task); err != nil {
		return err
	}
	if s.locked[task] {
		return fmt.Errorf("editor: task %q is locked", task)
	}
	p := s.prob.Clone()
	p.Release(task, newStart)
	p.Deadline(task, newStart)
	for name := range s.locked {
		i, err := s.index(name)
		if err != nil {
			return err
		}
		p.Release(name, s.cur.Start[i])
		p.Deadline(name, s.cur.Start[i])
	}
	r, err := sched.Run(p, s.opts)
	if err != nil {
		return fmt.Errorf("editor: cannot place %q at %d: %w", task, newStart, err)
	}
	if rep := verify.Check(s.prob, r.Schedule); !rep.OK() {
		return fmt.Errorf("editor: repaired schedule invalid: %w", rep.Err())
	}
	s.commit()
	s.cur = r.Schedule.Clone()
	return nil
}

// Undo reverts the last mutation. It reports whether anything changed.
func (s *Session) Undo() bool {
	if len(s.undo) == 0 {
		return false
	}
	s.redo = append(s.redo, s.snapshot())
	s.restore(s.undo[len(s.undo)-1])
	s.undo = s.undo[:len(s.undo)-1]
	return true
}

// Redo re-applies the last undone mutation.
func (s *Session) Redo() bool {
	if len(s.redo) == 0 {
		return false
	}
	s.undo = append(s.undo, s.snapshot())
	s.restore(s.redo[len(s.redo)-1])
	s.redo = s.redo[:len(s.redo)-1]
	return true
}

// Metrics re-derives the current schedule's metrics (the power view's
// annotations).
func (s *Session) Metrics() verify.Metrics {
	return verify.Check(s.prob, s.cur).Metrics
}

// Profile returns the current power profile.
func (s *Session) Profile() power.Profile {
	return power.Build(s.prob.Tasks, s.cur, s.prob.BasePower)
}

// Gaps returns the current min-power gaps (the soft violations the
// designer is trying to fill).
func (s *Session) Gaps() []power.Interval {
	return s.Profile().Gaps(s.prob.Pmin)
}

// Chart renders the session as a power-aware Gantt chart.
func (s *Session) Chart() *gantt.Chart {
	return gantt.New(s.prob, s.cur)
}

func (s *Session) index(task string) (int, error) {
	for i, t := range s.prob.Tasks {
		if t.Name == task {
			return i, nil
		}
	}
	return 0, fmt.Errorf("editor: unknown task %q", task)
}

// commit pushes the current state onto the undo stack and clears redo.
func (s *Session) commit() {
	s.undo = append(s.undo, s.snapshot())
	s.redo = nil
}

func (s *Session) snapshot() snapshot {
	locked := make(map[string]bool, len(s.locked))
	for k, v := range s.locked {
		locked[k] = v
	}
	return snapshot{start: append([]model.Time(nil), s.cur.Start...), locked: locked}
}

func (s *Session) restore(sn snapshot) {
	s.cur = schedule.Schedule{Start: append([]model.Time(nil), sn.start...)}
	locked := make(map[string]bool, len(sn.locked))
	for k, v := range sn.locked {
		locked[k] = v
	}
	s.locked = locked
}
