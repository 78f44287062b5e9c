// Package model defines the task, resource, and constraint vocabulary of
// the power-aware scheduling problem from Liu et al., DAC 2001.
//
// A Problem is a constraint graph G(V,E) in source form: the vertices are
// Tasks, each carrying an execution delay d(v), a power consumption p(v),
// and an execution resource r(v); the edges are min/max timing separations
// between task start times. Min/max separations subsume release times,
// deadlines, and precedence dependencies. The system-level power profile is
// constrained by a hard max power budget Pmax and a soft min power goal
// Pmin (the free-power level, e.g. available solar power).
package model

import (
	"fmt"
	"math"
	"sort"
)

// Time is a point or duration on the schedule's discrete time axis.
// The paper's examples use integral seconds throughout.
type Time = int

// MaxHorizon bounds the time span of any plan taken from outside the
// process (a loaded library, a shipped store record, an uploaded
// problem): verification samples a schedule once per second up to its
// finish, so a start or delay taken from input must not buy an
// unbounded check.
const MaxHorizon Time = 1 << 20

// Anchor is the reserved name of the virtual task that starts at time 0.
// Constraints whose From or To field equals Anchor constrain a task
// against the schedule origin: a release time is a min separation from
// the anchor, a deadline is a max separation from the anchor.
const Anchor = "$anchor"

// Task is a vertex of the constraint graph: a non-preemptive unit of work
// with a bounded execution delay, an exact power consumption, and a
// resource mapping. Two tasks mapped to the same resource must be
// serialized by the scheduler.
type Task struct {
	// Name identifies the task; it must be unique within a Problem and
	// must not equal Anchor.
	Name string
	// Resource names the execution resource r(v) the task is mapped to.
	// Resources are not limited to computing elements; mechanical
	// subsystems and heaters are resources too.
	Resource string
	// Delay is the execution delay d(v) in time units; it must be > 0.
	// It is the nominal delay: the chosen machine speed and DVS level
	// scale it (see EffDelay); with no machines and no levels it is
	// the effective delay, exactly as in the paper.
	Delay Time
	// Power is the power consumption p(v) in watts while the task
	// executes; it must be >= 0. Energy consumption is Delay*Power.
	// Tasks with an explicit Levels curve draw the level's power
	// instead.
	Power float64
	// Levels is the task's optional DVS duration-power tradeoff curve.
	// Empty means the single implicit nominal level {Mult: 1, Power}.
	Levels []DVSLevel `json:",omitempty"`
	// Machine optionally pins the task to the named machine. Empty
	// means any machine (or none, when the problem declares none).
	Machine string `json:",omitempty"`
}

// Energy returns the task's total energy expenditure d(v)*p(v) in joules.
func (t Task) Energy() float64 { return float64(t.Delay) * t.Power }

// Constraint is a timing edge between two task start times:
//
//	sigma(To) >= sigma(From) + Min          (always)
//	sigma(To) <= sigma(From) + Max          (when HasMax)
//
// A plain precedence "u before v" is Min = u.Delay. A window such as the
// rover's "heating at least 5 s, at most 50 s before steering" is
// Min = 5, Max = 50 on the heat->steer edge.
type Constraint struct {
	From   string
	To     string
	Min    Time
	Max    Time
	HasMax bool
}

// String renders the constraint in the form used by the spec format.
func (c Constraint) String() string {
	if c.HasMax {
		return fmt.Sprintf("%s -> %s [%d,%d]", c.From, c.To, c.Min, c.Max)
	}
	return fmt.Sprintf("%s -> %s [%d,]", c.From, c.To, c.Min)
}

// Problem is a complete power-aware scheduling problem: a constraint
// graph plus the system power constraints.
type Problem struct {
	// Name labels the problem in reports and rendered charts.
	Name string
	// Tasks are the vertices of the constraint graph.
	Tasks []Task
	// Constraints are the min/max separation edges.
	Constraints []Constraint
	// Pmax is the hard maximum power budget in watts. The power profile
	// of a valid schedule never exceeds Pmax.
	Pmax float64
	// Pmin is the soft minimum power goal in watts, typically the free
	// (solar) power level. Consumption below Pmin wastes free energy.
	Pmin float64
	// BasePower is a constant system load present for the entire
	// schedule (the rover's CPU in Table 2 is "constant"). It is added
	// to the power profile but is not a schedulable task.
	BasePower float64
	// Machines is the optional heterogeneous machine set. Empty means
	// the paper's single-system model: no assignment dimension, tasks
	// serialized by resource only.
	Machines []Machine `json:",omitempty"`
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := *p
	q.Tasks = append([]Task(nil), p.Tasks...)
	for i := range q.Tasks {
		if len(q.Tasks[i].Levels) > 0 {
			q.Tasks[i].Levels = append([]DVSLevel(nil), q.Tasks[i].Levels...)
		}
	}
	q.Constraints = append([]Constraint(nil), p.Constraints...)
	if len(p.Machines) > 0 {
		q.Machines = append([]Machine(nil), p.Machines...)
	}
	return &q
}

// TaskIndex returns a map from task name to its index in Tasks.
func (p *Problem) TaskIndex() map[string]int {
	m := make(map[string]int, len(p.Tasks))
	for i, t := range p.Tasks {
		m[t.Name] = i
	}
	return m
}

// TaskByName returns the task with the given name.
func (p *Problem) TaskByName(name string) (Task, bool) {
	for _, t := range p.Tasks {
		if t.Name == name {
			return t, true
		}
	}
	return Task{}, false
}

// Resources returns the sorted set of resource names used by the tasks.
func (p *Problem) Resources() []string {
	seen := make(map[string]bool)
	var rs []string
	for _, t := range p.Tasks {
		if !seen[t.Resource] {
			seen[t.Resource] = true
			rs = append(rs, t.Resource)
		}
	}
	sort.Strings(rs)
	return rs
}

// AddTask appends a task and returns its index.
func (p *Problem) AddTask(t Task) int {
	p.Tasks = append(p.Tasks, t)
	return len(p.Tasks) - 1
}

// Precede adds the plain precedence constraint "from finishes before to
// starts": a min separation equal to from's delay.
func (p *Problem) Precede(from, to string) error {
	t, ok := p.TaskByName(from)
	if !ok {
		return fmt.Errorf("model: precede: unknown task %q", from)
	}
	p.Constraints = append(p.Constraints, Constraint{From: from, To: to, Min: t.Delay})
	return nil
}

// MinSep adds sigma(to) >= sigma(from) + s.
func (p *Problem) MinSep(from, to string, s Time) {
	p.Constraints = append(p.Constraints, Constraint{From: from, To: to, Min: s})
}

// Window adds min <= sigma(to) - sigma(from) <= max.
func (p *Problem) Window(from, to string, min, max Time) {
	p.Constraints = append(p.Constraints, Constraint{From: from, To: to, Min: min, Max: max, HasMax: true})
}

// Release constrains the task to start no earlier than t.
func (p *Problem) Release(task string, t Time) {
	p.Constraints = append(p.Constraints, Constraint{From: Anchor, To: task, Min: t})
}

// Deadline constrains the task to start no later than t.
func (p *Problem) Deadline(task string, t Time) {
	p.Constraints = append(p.Constraints, Constraint{From: Anchor, To: task, Min: 0, Max: t, HasMax: true})
}

// Validate checks structural well-formedness: unique non-empty task
// names, positive delays, finite non-negative powers, constraints
// referencing known tasks (or the anchor), consistent windows, and sane
// power constraints. It does not check feasibility; that is the
// scheduler's job.
func (p *Problem) Validate() error {
	if len(p.Tasks) == 0 {
		return fmt.Errorf("model: problem %q has no tasks", p.Name)
	}
	if err := p.checkFinite(); err != nil {
		return err
	}
	names := make(map[string]bool, len(p.Tasks))
	for i, t := range p.Tasks {
		if t.Name == "" {
			return fmt.Errorf("model: task %d has empty name", i)
		}
		if t.Name == Anchor {
			return fmt.Errorf("model: task %d uses reserved name %q", i, Anchor)
		}
		if names[t.Name] {
			return fmt.Errorf("model: duplicate task name %q", t.Name)
		}
		names[t.Name] = true
		if t.Delay <= 0 {
			return fmt.Errorf("model: task %q has non-positive delay %d", t.Name, t.Delay)
		}
		if t.Power < 0 {
			return fmt.Errorf("model: task %q has negative power %g", t.Name, t.Power)
		}
		if t.Resource == "" {
			return fmt.Errorf("model: task %q has empty resource", t.Name)
		}
	}
	known := func(name string) bool { return name == Anchor || names[name] }
	for _, c := range p.Constraints {
		if !known(c.From) {
			return fmt.Errorf("model: constraint %s references unknown task %q", c, c.From)
		}
		if !known(c.To) {
			return fmt.Errorf("model: constraint %s references unknown task %q", c, c.To)
		}
		if c.From == c.To {
			return fmt.Errorf("model: constraint %s is a self-loop", c)
		}
		if c.HasMax && c.Max < c.Min {
			return fmt.Errorf("model: constraint %s has max < min", c)
		}
	}
	if p.Pmax < 0 || p.Pmin < 0 {
		return fmt.Errorf("model: negative power constraint (Pmax=%g, Pmin=%g)", p.Pmax, p.Pmin)
	}
	if p.Pmax != 0 && p.Pmin > p.Pmax {
		return fmt.Errorf("model: Pmin %g exceeds Pmax %g", p.Pmin, p.Pmax)
	}
	if p.BasePower < 0 {
		return fmt.Errorf("model: negative base power %g", p.BasePower)
	}
	if err := p.validateMachines(); err != nil {
		return err
	}
	if p.Pmax != 0 {
		if !p.Heterogeneous() {
			for _, t := range p.Tasks {
				if t.Power+p.BasePower > p.Pmax {
					return fmt.Errorf("model: task %q alone (%g W + base %g W) exceeds Pmax %g W",
						t.Name, t.Power, p.BasePower, p.Pmax)
				}
			}
		} else {
			// A task must have at least one (machine, level) choice
			// whose effective power fits under the budget; TaskChoices
			// already filters solo-overbudget choices out.
			for i, t := range p.Tasks {
				if len(p.TaskChoices(i)) == 0 {
					return fmt.Errorf("model: task %q has no machine/level choice within Pmax %g W (base %g W)",
						t.Name, p.Pmax, p.BasePower)
				}
			}
		}
	}
	return nil
}

// checkFinite refuses NaN and ±Inf in every float field of the problem.
// The range checks in Validate compare with < and >, which NaN passes,
// and no power, speed or multiplier means anything at infinity.
func (p *Problem) checkFinite() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	if !finite(p.Pmax) || !finite(p.Pmin) || !finite(p.BasePower) {
		return fmt.Errorf("model: non-finite power constraint (Pmax=%g, Pmin=%g, base=%g)", p.Pmax, p.Pmin, p.BasePower)
	}
	for _, m := range p.Machines {
		if !finite(m.Speed) || !finite(m.PowerScale) {
			return fmt.Errorf("model: machine %q has non-finite speed %g or power scale %g", m.Name, m.Speed, m.PowerScale)
		}
	}
	for _, t := range p.Tasks {
		if !finite(t.Power) {
			return fmt.Errorf("model: task %q has non-finite power %g", t.Name, t.Power)
		}
		for li, lvl := range t.Levels {
			if !finite(lvl.Mult) || !finite(lvl.Power) {
				return fmt.Errorf("model: task %q level %d has non-finite multiplier %g or power %g", t.Name, li, lvl.Mult, lvl.Power)
			}
		}
	}
	return nil
}
