// Package exec is the execution layer under the static schedules: a
// discrete-event replay of a schedule against live power sources. Where
// the power metrics of internal/power evaluate a schedule against fixed
// Pmax/Pmin levels, Execute runs it second by second against a
// time-varying solar source and a battery, drawing real energy,
// detecting budget violations at the instant they would occur (for
// example when the solar output drops mid-schedule), and producing an
// event trace for inspection or visualization.
package exec

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/schedule"
)

// EventKind classifies trace events.
type EventKind int

const (
	// TaskStart marks a task beginning execution.
	TaskStart EventKind = iota
	// TaskFinish marks a task completing.
	TaskFinish
)

func (k EventKind) String() string {
	if k == TaskStart {
		return "start"
	}
	return "finish"
}

// Event is one entry of the execution trace.
type Event struct {
	// T is the schedule-relative time of the event.
	T model.Time
	// Kind is start or finish.
	Kind EventKind
	// Task names the task.
	Task string
	// SystemPower is the total demand immediately after the event.
	SystemPower float64
}

// Trace derives the ordered start/finish event log of a schedule.
// Finishes sort before starts at the same instant (the resource is
// free for the next task), names break remaining ties.
func Trace(p *model.Problem, s schedule.Schedule) []Event {
	// Each event carries its task's power change in SystemPower until
	// the sorted log turns the changes into running totals.
	var evs []Event
	for i, t := range p.Tasks {
		evs = append(evs,
			Event{T: s.Start[i], Kind: TaskStart, Task: t.Name, SystemPower: t.Power},
			Event{T: s.Start[i] + t.Delay, Kind: TaskFinish, Task: t.Name, SystemPower: -t.Power},
		)
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].T != evs[b].T {
			return evs[a].T < evs[b].T
		}
		if evs[a].Kind != evs[b].Kind {
			return evs[a].Kind == TaskFinish
		}
		return evs[a].Task < evs[b].Task
	})
	cur := p.BasePower
	for i := range evs {
		cur += evs[i].SystemPower
		evs[i].SystemPower = cur
	}
	return evs
}

// Report is the outcome of an execution.
type Report struct {
	// Events is the trace (Execute only; nil from ExecuteUntil).
	Events []Event
	// Finish is the schedule-relative completion time.
	Finish model.Time
	// Energy is total consumption in joules.
	Energy float64
	// SolarUsed is the energy served by the free source.
	SolarUsed float64
	// BatteryUsed is the energy served by the battery.
	BatteryUsed float64
	// SolarWasted is free energy available but not consumed.
	SolarWasted float64
	// PeakDemand is the highest instantaneous demand observed.
	PeakDemand float64

	// Violated reports whether the replay stopped on a violation
	// (over-budget demand or battery exhaustion) rather than running
	// to its horizon.
	Violated bool
	// ViolationAt is the schedule-relative instant of the violation.
	// Seconds [0, ViolationAt) executed and were accounted (energy,
	// battery draw); second ViolationAt itself did not happen. Only
	// meaningful when Violated is true.
	ViolationAt model.Time
	// StoppedAt is the instant the replay stopped: ViolationAt on a
	// violation, min(until, Finish) otherwise. A task that started
	// before it and had not finished by it was in flight; one starting
	// at or after it had not started.
	StoppedAt model.Time
}

// Execute replays the schedule starting at mission time offset against
// the supply and attaches its event trace. Demand beyond the
// instantaneous solar output is drawn from the battery; demand beyond
// solar plus the battery's maximum output is a hard failure, as is
// battery exhaustion. The battery may be nil when only solar
// accounting is wanted (any over-solar demand then fails).
func Execute(p *model.Problem, s schedule.Schedule, sup power.Supply, bat *power.Battery, offset model.Time) (Report, error) {
	rep, err := ExecuteUntil(p, s, sup, bat, offset, -1)
	rep.Events = Trace(p, s)
	return rep, err
}

// ExecuteUntil replays only the first `until` seconds of the schedule
// (a negative until, or one at or beyond the finish time, replays the
// whole schedule). It builds no event trace (rep.Events is nil) and
// allocates nothing unless it fails. Whether the replay completes,
// stops at the horizon, or fails, the report carries the instant it
// stopped, so an online rescheduler can split the tasks into done, in
// flight and not started without re-deriving the trace. The float
// accumulation order (base power, then tasks in index order, per
// second) is part of the contract: campaign determinism relies on
// every replay summing in the same order.
func ExecuteUntil(p *model.Problem, s schedule.Schedule, sup power.Supply, bat *power.Battery, offset, until model.Time) (Report, error) {
	rep := Report{Finish: s.Finish(p.Tasks)}
	end := rep.Finish
	if until >= 0 && until < end {
		end = until
	}
	fail := func(t model.Time, err error) (Report, error) {
		rep.Violated = true
		rep.ViolationAt = t
		rep.StoppedAt = t
		return rep, err
	}
	for t := model.Time(0); t < end; t++ {
		demand := p.BasePower
		for i := range p.Tasks { // indexed: a range value copies the ~88-byte task
			if s.Start[i] <= t && t < s.Start[i]+p.Tasks[i].Delay {
				demand += p.Tasks[i].Power
			}
		}
		if demand > rep.PeakDemand {
			rep.PeakDemand = demand
		}
		solar := sup.PminAt(offset + t)
		budget := solar
		if bat != nil {
			budget += bat.MaxPower
		}
		if demand > budget+1e-9 {
			return fail(t, fmt.Errorf("exec: t=%d (mission %d): demand %.4g W exceeds available %.4g W",
				t, offset+t, demand, budget))
		}
		rep.Energy += demand
		if demand <= solar {
			rep.SolarUsed += demand
			rep.SolarWasted += solar - demand
			continue
		}
		rep.SolarUsed += solar
		draw := demand - solar
		if bat == nil {
			rep.Energy -= demand
			rep.SolarUsed -= solar
			return fail(t, fmt.Errorf("exec: t=%d: demand %.4g W exceeds solar %.4g W with no battery",
				t, demand, solar))
		}
		if err := bat.Draw(draw); err != nil {
			// Roll the failed second back out of the ledgers so the
			// report accounts exactly [0, ViolationAt).
			rep.Energy -= demand
			rep.SolarUsed -= solar
			return fail(t, fmt.Errorf("exec: t=%d: %w", t, err))
		}
		rep.BatteryUsed += draw
	}
	rep.StoppedAt = end
	return rep, nil
}
