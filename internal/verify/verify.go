// Package verify is an independent schedule checker: it re-derives
// every property a power-aware schedule must satisfy directly from the
// problem statement, using deliberately different algorithms from the
// scheduler's own machinery (pairwise scans instead of graph edges,
// per-second sampling instead of segment sweeps). It serves as a
// cross-validation oracle in tests and as a certificate generator for
// downstream consumers of a schedule.
package verify

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/schedule"
)

// Kind classifies a violation.
type Kind string

// Violation kinds.
const (
	KindStart      Kind = "negative-start"    // task starts before time 0
	KindConstraint Kind = "timing-constraint" // min/max separation violated
	KindResource   Kind = "resource-conflict" // same-resource overlap
	KindSpike      Kind = "power-spike"       // P(t) > Pmax
	KindMachine    Kind = "machine-conflict"  // same-machine overlap
	KindAssignment Kind = "bad-assignment"    // assignment does not fit the problem
)

// Violation is one independently detected problem with a schedule.
type Violation struct {
	Kind   Kind
	Detail string
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Kind, v.Detail) }

// Metrics are the re-derived evaluation quantities, computed by
// per-second integration rather than segment arithmetic.
type Metrics struct {
	Finish      model.Time
	Peak        float64
	Floor       float64
	Energy      float64
	EnergyCost  float64
	FreeUsed    float64
	Utilization float64
}

// Report is the outcome of a full independent check.
type Report struct {
	Violations []Violation
	Metrics    Metrics
	// GapSeconds counts the seconds where P(t) < Pmin (soft; not a
	// violation, reported for completeness).
	GapSeconds int
}

// OK reports whether the schedule is valid (time-valid and under the
// power budget). Power gaps are soft and do not affect OK.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a valid schedule, or an error summarizing every
// violation.
func (r Report) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		msgs[i] = v.String()
	}
	return fmt.Errorf("verify: %d violation(s): %s", len(r.Violations), strings.Join(msgs, "; "))
}

// Check independently validates schedule s against problem p and
// recomputes its metrics. It never consults the scheduler's constraint
// graph or profile code. A heterogeneous p must be resolved — the view
// a scheduling result's EffectiveProblem returns — and is checked
// under the only assignment it allows (see resolved); an unresolved
// one is reported as one KindAssignment violation, never given the
// nominal answer.
func Check(p *model.Problem, s schedule.Schedule) Report {
	a, err := resolved(p)
	if err != nil {
		return Report{Violations: []Violation{{Kind: KindAssignment, Detail: err.Error()}}}
	}
	return CheckAssigned(p, s, a)
}

// resolved returns the only assignment a resolved problem allows:
// every task has at most one DVS level and, when the problem has
// machines, a pin, which gives level 0 on the pinned machine. It is
// nil for a degenerate problem and an error for one that leaves any
// task a choice.
func resolved(p *model.Problem) (model.Assignment, error) {
	if !p.Heterogeneous() {
		return nil, nil
	}
	machine := p.MachineIndex()
	a := make(model.Assignment, len(p.Tasks))
	for i, t := range p.Tasks {
		if len(t.Levels) > 1 {
			return nil, fmt.Errorf("task %q has %d DVS levels: check the resolved problem of its plan", t.Name, len(t.Levels))
		}
		a[i].Machine = -1
		if len(p.Machines) > 0 {
			m, ok := machine[t.Machine]
			if !ok {
				return nil, fmt.Errorf("task %q is not pinned to a machine: check the resolved problem of its plan", t.Name)
			}
			a[i].Machine = m
		}
	}
	return a, nil
}

// CheckAssigned is Check under a machine/level assignment: every task's
// delay and power are the effective values of its assigned (machine,
// level), and tasks sharing a machine must be serialized like tasks
// sharing a resource. A nil assignment checks the nominal tasks: for
// a degenerate problem that is exactly Check.
func CheckAssigned(p *model.Problem, s schedule.Schedule, a model.Assignment) Report {
	var rep Report
	tasks, err := p.EffectiveTasks(a)
	if err != nil {
		rep.Violations = append(rep.Violations, Violation{Kind: KindAssignment, Detail: err.Error()})
		return rep
	}
	if len(s.Start) != len(p.Tasks) {
		rep.Violations = append(rep.Violations, Violation{
			Kind:   KindStart,
			Detail: fmt.Sprintf("schedule has %d starts for %d tasks", len(s.Start), len(p.Tasks)),
		})
		return rep
	}

	start := make(map[string]model.Time, len(p.Tasks))
	for i, t := range tasks {
		start[t.Name] = s.Start[i]
		if s.Start[i] < 0 {
			rep.Violations = append(rep.Violations, Violation{
				Kind:   KindStart,
				Detail: fmt.Sprintf("task %q starts at %d", t.Name, s.Start[i]),
			})
		}
	}
	sigma := func(name string) model.Time {
		if name == model.Anchor {
			return 0
		}
		return start[name]
	}

	// Timing constraints, straight from the problem statement.
	for _, c := range p.Constraints {
		sep := sigma(c.To) - sigma(c.From)
		if sep < c.Min {
			rep.Violations = append(rep.Violations, Violation{
				Kind:   KindConstraint,
				Detail: fmt.Sprintf("%s: separation %d < min %d", c, sep, c.Min),
			})
		}
		if c.HasMax && sep > c.Max {
			rep.Violations = append(rep.Violations, Violation{
				Kind:   KindConstraint,
				Detail: fmt.Sprintf("%s: separation %d > max %d", c, sep, c.Max),
			})
		}
	}

	// Resource serialization by pairwise overlap scan.
	for i := range tasks {
		for j := i + 1; j < len(tasks); j++ {
			ti, tj := tasks[i], tasks[j]
			if ti.Resource != tj.Resource {
				continue
			}
			iEnd := s.Start[i] + ti.Delay
			jEnd := s.Start[j] + tj.Delay
			if s.Start[i] < jEnd && s.Start[j] < iEnd {
				rep.Violations = append(rep.Violations, Violation{
					Kind: KindResource,
					Detail: fmt.Sprintf("%q [%d,%d) overlaps %q [%d,%d) on %s",
						ti.Name, s.Start[i], iEnd, tj.Name, s.Start[j], jEnd, ti.Resource),
				})
			}
		}
	}

	// Machine serialization: two tasks assigned the same machine must
	// never overlap, whatever their resources. (Same-resource pairs are
	// already reported above; repeating them as machine conflicts would
	// double-count one overlap.)
	if a != nil && len(p.Machines) > 0 {
		for i := range tasks {
			for j := i + 1; j < len(tasks); j++ {
				if a[i].Machine < 0 || a[i].Machine != a[j].Machine || tasks[i].Resource == tasks[j].Resource {
					continue
				}
				iEnd := s.Start[i] + tasks[i].Delay
				jEnd := s.Start[j] + tasks[j].Delay
				if s.Start[i] < jEnd && s.Start[j] < iEnd {
					rep.Violations = append(rep.Violations, Violation{
						Kind: KindMachine,
						Detail: fmt.Sprintf("%q [%d,%d) overlaps %q [%d,%d) on machine %s",
							tasks[i].Name, s.Start[i], iEnd, tasks[j].Name, s.Start[j], jEnd, p.Machines[a[i].Machine].Name),
					})
				}
			}
		}
	}

	// Power by per-second sampling.
	rep.Metrics = sampleMetrics(p, tasks, s)
	if p.Pmax > 0 {
		tau := rep.Metrics.Finish
		inSpike := false
		spikeFrom := model.Time(0)
		for t := model.Time(0); t <= tau; t++ {
			over := t < tau && powerAt(p, tasks, s, t) > p.Pmax
			switch {
			case over && !inSpike:
				inSpike, spikeFrom = true, t
			case !over && inSpike:
				inSpike = false
				rep.Violations = append(rep.Violations, Violation{
					Kind:   KindSpike,
					Detail: fmt.Sprintf("P > %.4g W during [%d,%d)", p.Pmax, spikeFrom, t),
				})
			}
		}
	}
	if p.Pmin > 0 {
		for t := model.Time(0); t < rep.Metrics.Finish; t++ {
			if powerAt(p, tasks, s, t) < p.Pmin {
				rep.GapSeconds++
			}
		}
	}
	return rep
}

// powerAt sums the power of tasks active at second t plus base power.
func powerAt(p *model.Problem, tasks []model.Task, s schedule.Schedule, t model.Time) float64 {
	sum := p.BasePower
	for i, task := range tasks {
		if s.Start[i] <= t && t < s.Start[i]+task.Delay {
			sum += task.Power
		}
	}
	return sum
}

// sampleMetrics integrates the power curve one second at a time.
func sampleMetrics(p *model.Problem, tasks []model.Task, s schedule.Schedule) Metrics {
	var m Metrics
	for i, t := range tasks {
		if end := s.Start[i] + t.Delay; end > m.Finish {
			m.Finish = end
		}
	}
	if m.Finish == 0 {
		m.Utilization = 1
		return m
	}
	m.Floor = powerAt(p, tasks, s, 0)
	for t := model.Time(0); t < m.Finish; t++ {
		pw := powerAt(p, tasks, s, t)
		m.Energy += pw
		if pw > m.Peak {
			m.Peak = pw
		}
		if pw < m.Floor {
			m.Floor = pw
		}
		if p.Pmin > 0 {
			if pw > p.Pmin {
				m.EnergyCost += pw - p.Pmin
				m.FreeUsed += p.Pmin
			} else {
				m.FreeUsed += pw
			}
		}
	}
	if p.Pmin > 0 {
		m.Utilization = m.FreeUsed / (p.Pmin * float64(m.Finish))
	} else {
		m.Utilization = 1
	}
	return m
}
