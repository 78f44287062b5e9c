package model

import (
	"fmt"
	"math"
)

// Machine is an execution element of a heterogeneous platform: a
// processor (or mechanical controller) with its own speed factor and
// power rating. Two tasks assigned to the same machine must be
// serialized, exactly like two tasks mapped to the same resource.
//
// The paper's single-system model is the degenerate case: a problem
// with no machines behaves as if every resource were its own implicit
// unit-speed, unit-rating machine, and every schedule it produced
// before the machine dimension existed is reproduced byte for byte.
type Machine struct {
	// Name identifies the machine; unique within a Problem.
	Name string
	// Speed divides task durations: a task with effective duration d at
	// unit speed runs in ceil(d/Speed) on this machine. Must be > 0.
	Speed float64
	// PowerScale multiplies task power draw on this machine (a faster
	// machine typically burns more watts per op). Must be > 0.
	PowerScale float64
}

// DVSLevel is one point on a task's voltage/frequency tradeoff curve
// (Leung & Tsui's duration-power tradeoff): running the task at this
// level stretches its nominal delay by Mult and draws Power watts
// (before the machine's PowerScale is applied).
type DVSLevel struct {
	// Mult multiplies the task's nominal delay. Must be > 0; 1 is the
	// nominal operating point, > 1 is a slow-down level.
	Mult float64
	// Power is the absolute power draw at this level in watts,
	// replacing the task's nominal Power. Must be >= 0.
	Power float64
}

// Choice fixes one task's machine assignment and DVS level. Machine is
// an index into Problem.Machines, or -1 when the problem has no
// machine set; Level indexes the task's Levels (0 for the implicit
// nominal level of a task with no explicit curve).
type Choice struct {
	Machine int
	Level   int
}

// Assignment is a per-task vector of choices, indexed like
// Problem.Tasks. A nil Assignment means "degenerate": every task at
// its nominal level with no machine dimension.
type Assignment []Choice

// Clone returns an independent copy of the assignment.
func (a Assignment) Clone() Assignment {
	if a == nil {
		return nil
	}
	return append(Assignment(nil), a...)
}

// TaskChoice is one concrete (machine, level) option for a task with
// its effective duration and power draw precomputed.
type TaskChoice struct {
	Machine int // index into Problem.Machines, -1 when the problem has none
	Level   int // index into Task.Levels (0 for the implicit level)
	Delay   Time
	Power   float64
}

// effDelayCap is where EffDelay saturates: far past MaxHorizon, so a
// saturated delay fails every horizon bound, yet small enough that
// millions of them sum without overflowing a Time.
const effDelayCap Time = 1 << 40

// EffDelay returns the effective execution delay of a nominal delay d
// stretched by a level multiplier and divided by a machine speed,
// rounded up to whole time units, floored at 1 and saturated at
// effDelayCap — a quotient past it (an absurdly slow machine, a huge
// multiplier, NaN) must not wrap into a short delay. With mult == 1
// and speed == 1 the result is exactly d for any d up to the cap.
func EffDelay(d Time, mult, speed float64) Time {
	e := math.Ceil(float64(d) * mult / speed)
	if !(e <= float64(effDelayCap)) {
		return effDelayCap
	}
	if e < 1 {
		return 1
	}
	return Time(e)
}

// levelsOf returns the task's explicit tradeoff curve, or the implicit
// single nominal level.
func levelsOf(t Task) []DVSLevel {
	if len(t.Levels) > 0 {
		return t.Levels
	}
	return []DVSLevel{{Mult: 1, Power: t.Power}}
}

// Heterogeneous reports whether the problem uses the machine or DVS
// dimension at all. A problem that is not heterogeneous is the paper's
// degenerate case: schedulers take the exact code paths (and produce
// the exact bytes) they did before the dimensions existed.
func (p *Problem) Heterogeneous() bool {
	if len(p.Machines) > 0 {
		return true
	}
	for _, t := range p.Tasks {
		if len(t.Levels) > 0 {
			return true
		}
	}
	return false
}

// MachineIndex returns a map from machine name to its index.
func (p *Problem) MachineIndex() map[string]int {
	m := make(map[string]int, len(p.Machines))
	for i, mc := range p.Machines {
		m[mc.Name] = i
	}
	return m
}

// TaskChoices returns task i's concrete (machine, level) options with
// effective delays and powers, ordered by the scheduler's preference:
// shortest effective delay first, then lowest effective power, then
// machine index, then level index. Options a task cannot legally take
// are excluded: machines other than the task's pin, and (when Pmax is
// set) choices whose effective power alone already breaks the budget —
// such a choice can never appear in any power-valid schedule, so both
// the heuristic search and the exact enumeration may skip it.
//
// For a degenerate problem the result is exactly one choice with the
// task's nominal delay and power.
func (p *Problem) TaskChoices(i int) []TaskChoice { return p.AppendTaskChoices(nil, i) }

// AppendTaskChoices appends task i's choices, in TaskChoices' order, to
// dst and returns the grown slice. It allocates only when dst lacks
// room: the order is a stable insertion sort over the appended choices
// (at most machines x levels of them).
func (p *Problem) AppendTaskChoices(dst []TaskChoice, i int) []TaskChoice {
	t := &p.Tasks[i]
	from := len(dst)
	if len(p.Machines) == 0 {
		dst = p.appendLevelChoices(dst, t, -1, 1, 1)
	} else {
		for mi := range p.Machines {
			m := &p.Machines[mi]
			if t.Machine != "" && t.Machine != m.Name {
				continue
			}
			dst = p.appendLevelChoices(dst, t, mi, m.Speed, m.PowerScale)
		}
	}
	out := dst[from:]
	for a := 1; a < len(out); a++ {
		for b := a; b > 0 && out[b].before(out[b-1]); b-- {
			out[b], out[b-1] = out[b-1], out[b]
		}
	}
	return dst
}

// appendLevelChoices appends task t's admissible levels on machine mi
// (-1: no machines) with the machine's speed and power scale.
func (p *Problem) appendLevelChoices(dst []TaskChoice, t *Task, mi int, speed, scale float64) []TaskChoice {
	for li, lvl := range levelsOf(*t) {
		c := TaskChoice{
			Machine: mi,
			Level:   li,
			Delay:   EffDelay(t.Delay, lvl.Mult, speed),
			Power:   lvl.Power * scale,
		}
		if p.Pmax != 0 && c.Power+p.BasePower > p.Pmax {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// before is the scheduler's preference order on one task's choices:
// shorter delay, then lower power, then machine, then level index.
func (x TaskChoice) before(y TaskChoice) bool {
	if x.Delay != y.Delay {
		return x.Delay < y.Delay
	}
	if x.Power != y.Power {
		return x.Power < y.Power
	}
	if x.Machine != y.Machine {
		return x.Machine < y.Machine
	}
	return x.Level < y.Level
}

// ChoiceFor resolves an assignment entry for task i into its concrete
// effective delay and power. A nil assignment (or a -1 machine on a
// machine-less problem) yields the nominal values.
func (p *Problem) ChoiceFor(i int, a Assignment) (TaskChoice, error) {
	t := p.Tasks[i]
	if a == nil {
		return TaskChoice{Machine: -1, Delay: t.Delay, Power: t.Power}, nil
	}
	if i >= len(a) {
		return TaskChoice{}, fmt.Errorf("model: assignment has %d entries for task index %d", len(a), i)
	}
	c := a[i]
	levels := levelsOf(t)
	if c.Level < 0 || c.Level >= len(levels) {
		return TaskChoice{}, fmt.Errorf("model: task %q assigned unknown level %d", t.Name, c.Level)
	}
	lvl := levels[c.Level]
	speed, scale := 1.0, 1.0
	if len(p.Machines) == 0 {
		if c.Machine != -1 {
			return TaskChoice{}, fmt.Errorf("model: task %q assigned machine %d but the problem has no machines", t.Name, c.Machine)
		}
	} else {
		if c.Machine < 0 || c.Machine >= len(p.Machines) {
			return TaskChoice{}, fmt.Errorf("model: task %q assigned unknown machine %d", t.Name, c.Machine)
		}
		m := p.Machines[c.Machine]
		if t.Machine != "" && t.Machine != m.Name {
			return TaskChoice{}, fmt.Errorf("model: task %q pinned to machine %q but assigned %q", t.Name, t.Machine, m.Name)
		}
		speed, scale = m.Speed, m.PowerScale
	}
	return TaskChoice{
		Machine: c.Machine,
		Level:   c.Level,
		Delay:   EffDelay(t.Delay, lvl.Mult, speed),
		Power:   lvl.Power * scale,
	}, nil
}

// EffectiveTasks materializes the task list under an assignment: same
// names, resources, and order, with each task's Delay and Power
// replaced by the effective values of its chosen machine and level.
// With a nil assignment the problem's own task slice is returned
// unchanged (no copy), which is the degenerate identity.
func (p *Problem) EffectiveTasks(a Assignment) ([]Task, error) {
	if a == nil {
		return p.Tasks, nil
	}
	out := append([]Task(nil), p.Tasks...)
	for i := range out {
		c, err := p.ChoiceFor(i, a)
		if err != nil {
			return nil, err
		}
		out[i].Delay = c.Delay
		out[i].Power = c.Power
	}
	return out, nil
}

// validateMachines checks the machine set and the tasks' level curves
// and pins; called from Validate.
func (p *Problem) validateMachines() error {
	names := make(map[string]bool, len(p.Machines))
	for i, m := range p.Machines {
		if m.Name == "" {
			return fmt.Errorf("model: machine %d has empty name", i)
		}
		if names[m.Name] {
			return fmt.Errorf("model: duplicate machine name %q", m.Name)
		}
		names[m.Name] = true
		if !(m.Speed > 0) {
			return fmt.Errorf("model: machine %q has non-positive speed %g", m.Name, m.Speed)
		}
		if !(m.PowerScale > 0) {
			return fmt.Errorf("model: machine %q has non-positive power scale %g", m.Name, m.PowerScale)
		}
	}
	for _, t := range p.Tasks {
		if t.Machine != "" {
			if len(p.Machines) == 0 {
				return fmt.Errorf("model: task %q pinned to machine %q but the problem declares no machines", t.Name, t.Machine)
			}
			if !names[t.Machine] {
				return fmt.Errorf("model: task %q pinned to unknown machine %q", t.Name, t.Machine)
			}
		}
		for li, lvl := range t.Levels {
			if !(lvl.Mult > 0) {
				return fmt.Errorf("model: task %q level %d has non-positive duration multiplier %g", t.Name, li, lvl.Mult)
			}
			if lvl.Power < 0 {
				return fmt.Errorf("model: task %q level %d has negative power %g", t.Name, li, lvl.Power)
			}
		}
	}
	return nil
}
