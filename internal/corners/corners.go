// Package corners extends the scheduler to the (min, typical, max)
// power form the paper mentions in section 4.1: task power consumption
// varies with operating conditions (for the rover, temperature), so a
// task carries three power corners instead of one exact value.
//
// The package supports two workflows:
//
//   - per-corner scheduling: instantiate the problem at each corner and
//     schedule each independently (the paper's power-aware approach —
//     one schedule per environmental case, selected at run time);
//   - conservative scheduling: schedule once at the max corner, which
//     is power-valid at every corner since instantaneous power only
//     decreases, then evaluate that single schedule under all corners
//     (the fixed-schedule approach of the JPL baseline, generalized).
//
// Comparing the two quantifies exactly the trade-off of the paper's
// Table 3.
package corners

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/verify"
)

// Corner selects one of the three power corners.
type Corner int

const (
	// Min is the most favorable corner (lowest consumption).
	Min Corner = iota
	// Typ is the typical corner.
	Typ
	// Max is the worst-case corner (highest consumption).
	Max
)

// AllCorners lists the corners in Min, Typ, Max order.
var AllCorners = []Corner{Min, Typ, Max}

func (c Corner) String() string {
	switch c {
	case Min:
		return "min"
	case Typ:
		return "typ"
	case Max:
		return "max"
	}
	return fmt.Sprintf("Corner(%d)", int(c))
}

// TriPower is a three-corner power value in watts.
type TriPower struct {
	Min, Typ, Max float64
}

// At returns the value at a corner.
func (t TriPower) At(c Corner) float64 {
	switch c {
	case Min:
		return t.Min
	case Typ:
		return t.Typ
	default:
		return t.Max
	}
}

// Valid reports whether the corners are ordered and non-negative.
func (t TriPower) Valid() bool {
	return t.Min >= 0 && t.Min <= t.Typ && t.Typ <= t.Max
}

// Env is the power-constraint environment in force at a corner: in the
// rover, hot (best) conditions come with more solar power, so Pmax and
// Pmin are corner-dependent too.
type Env struct {
	Pmax float64
	Pmin float64
}

// Model assigns corner powers to every task of a problem, plus the
// base load and the per-corner environments.
type Model struct {
	// Tasks maps task name to its power corners. Every task of the
	// problem must be present.
	Tasks map[string]TriPower
	// Base is the constant load's corners.
	Base TriPower
	// Envs optionally overrides the problem's Pmax/Pmin per corner. A
	// zero-valued entry keeps the problem's own constraints.
	Envs map[Corner]Env
}

// Validate checks the model against a problem. A corner power is the
// power a task draws, so a problem whose DVS levels or machine power
// scales would rescale it is refused; a plan's resolved problem
// (sched.Result's EffectiveProblem) has unit-rated machines and no
// level choice, and is accepted.
func (m Model) Validate(p *model.Problem) error {
	if !m.Base.Valid() {
		return fmt.Errorf("corners: base corners %+v not ordered", m.Base)
	}
	for _, mc := range p.Machines {
		if mc.PowerScale != 1 {
			return fmt.Errorf("corners: machine %q scales power by %g; use the plan's resolved problem", mc.Name, mc.PowerScale)
		}
	}
	for _, t := range p.Tasks {
		tp, ok := m.Tasks[t.Name]
		if !ok {
			return fmt.Errorf("corners: task %q has no corner powers", t.Name)
		}
		if !tp.Valid() {
			return fmt.Errorf("corners: task %q corners %+v not ordered", t.Name, tp)
		}
		if len(t.Levels) > 0 {
			return fmt.Errorf("corners: task %q has DVS levels; use the plan's resolved problem", t.Name)
		}
	}
	return nil
}

// Instantiate returns a copy of the problem with every power replaced
// by its value at the given corner, and the corner's environment
// applied when one is configured.
func (m Model) Instantiate(p *model.Problem, c Corner) (*model.Problem, error) {
	if err := m.Validate(p); err != nil {
		return nil, err
	}
	q := p.Clone()
	q.Name = fmt.Sprintf("%s@%s", p.Name, c)
	q.BasePower = m.Base.At(c)
	for i := range q.Tasks {
		q.Tasks[i].Power = m.Tasks[q.Tasks[i].Name].At(c)
	}
	if env, ok := m.Envs[c]; ok && (env.Pmax != 0 || env.Pmin != 0) {
		q.Pmax, q.Pmin = env.Pmax, env.Pmin
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// CornerMetrics is one corner's evaluation of a schedule.
type CornerMetrics struct {
	Corner  Corner
	Valid   bool
	Metrics verify.Metrics
}

// Report is the outcome of a conservative-schedule analysis.
type Report struct {
	// Schedule is the single schedule computed at the max corner.
	Schedule schedule.Schedule
	// PerCorner evaluates that schedule under each corner's powers and
	// environment, in Min, Typ, Max order.
	PerCorner []CornerMetrics
}

// Conservative schedules the problem once at the max corner and
// evaluates the resulting schedule at every corner, on the max-corner
// plan's resolved problem (so a machine choice made there holds at
// every corner). Power-validity at the max corner implies validity at
// the others whenever the corner environments do not tighten Pmax.
func Conservative(p *model.Problem, m Model, opts sched.Options) (Report, error) {
	worst, err := m.Instantiate(p, Max)
	if err != nil {
		return Report{}, err
	}
	r, err := sched.Run(worst, opts)
	if err != nil {
		return Report{}, fmt.Errorf("corners: scheduling max corner: %w", err)
	}
	// Each corner instantiates the plan's resolved problem exactly as
	// it would p: under p's name and environment.
	plan := *r.EffectiveProblem()
	plan.Name, plan.Pmax, plan.Pmin = p.Name, p.Pmax, p.Pmin
	rep := Report{Schedule: r.Schedule}
	for _, c := range AllCorners {
		q, err := m.Instantiate(&plan, c)
		if err != nil {
			return Report{}, err
		}
		chk := verify.Check(q, r.Schedule)
		rep.PerCorner = append(rep.PerCorner, CornerMetrics{
			Corner:  c,
			Valid:   chk.OK(),
			Metrics: chk.Metrics,
		})
	}
	return rep, nil
}

// PerCornerResult is one corner's independently scheduled outcome.
type PerCornerResult struct {
	Corner Corner
	// Problem is the resolved problem the corner's schedule executes.
	Problem *model.Problem
	Result  *sched.Result
	Metrics verify.Metrics
}

// PerCorner schedules the problem independently at every corner — the
// power-aware approach: one schedule per operating condition.
func PerCorner(p *model.Problem, m Model, opts sched.Options) ([]PerCornerResult, error) {
	var out []PerCornerResult
	for _, c := range AllCorners {
		q, err := m.Instantiate(p, c)
		if err != nil {
			return nil, err
		}
		r, err := sched.Run(q, opts)
		if err != nil {
			return nil, fmt.Errorf("corners: scheduling %s corner: %w", c, err)
		}
		plan := r.EffectiveProblem()
		out = append(out, PerCornerResult{
			Corner:  c,
			Problem: plan,
			Result:  r,
			Metrics: verify.Check(plan, r.Schedule).Metrics,
		})
	}
	return out, nil
}
