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
	var evs []Event
	for i, t := range p.Tasks {
		evs = append(evs,
			Event{T: s.Start[i], Kind: TaskStart, Task: t.Name},
			Event{T: s.Start[i] + t.Delay, Kind: TaskFinish, Task: t.Name},
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
	byName := p.TaskIndex()
	for i := range evs {
		task := p.Tasks[byName[evs[i].Task]]
		if evs[i].Kind == TaskStart {
			cur += task.Power
		} else {
			cur -= task.Power
		}
		evs[i].SystemPower = cur
	}
	return evs
}

// Report is the outcome of an execution.
type Report struct {
	// Events is the trace.
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
	// violation, min(until, Finish) otherwise. NotStarted and
	// InFlight describe the residual state at this instant.
	StoppedAt model.Time
	// NotStarted lists the tasks whose start time is at or after
	// StoppedAt — the residual set an online rescheduler plans over.
	// Ordered by scheduled start, then name.
	NotStarted []string
	// InFlight lists the tasks that started before StoppedAt but had
	// not finished — work a contingency must restart (tasks are
	// non-preemptive; partial progress is lost). Ordered by scheduled
	// start, then name.
	InFlight []string

	// Sort keys parallel to NotStarted/InFlight, kept on the report so
	// a reused report (Replayer) re-sorts into the same backing arrays
	// instead of allocating per replay.
	nsStarts []model.Time
	ifStarts []model.Time
}

// residual fills the NotStarted/InFlight sets of the report for the
// instant the replay stopped. It reuses the report's slice backing
// (insertion sort by start, then name — residual sets are small), so a
// reused report allocates nothing once the buffers have grown.
func (rep *Report) residual(p *model.Problem, s schedule.Schedule, stop model.Time) {
	rep.StoppedAt = stop
	rep.NotStarted, rep.nsStarts = rep.NotStarted[:0], rep.nsStarts[:0]
	rep.InFlight, rep.ifStarts = rep.InFlight[:0], rep.ifStarts[:0]
	for i, t := range p.Tasks {
		switch {
		case s.Start[i] >= stop:
			rep.NotStarted, rep.nsStarts = insertByStart(rep.NotStarted, rep.nsStarts, t.Name, s.Start[i])
		case s.Start[i]+t.Delay > stop:
			rep.InFlight, rep.ifStarts = insertByStart(rep.InFlight, rep.ifStarts, t.Name, s.Start[i])
		}
	}
}

// insertByStart inserts name into the (start, name)-ordered parallel
// slices, keeping them sorted.
func insertByStart(names []string, starts []model.Time, name string, start model.Time) ([]string, []model.Time) {
	i := len(names)
	for i > 0 && (starts[i-1] > start || (starts[i-1] == start && names[i-1] > name)) {
		i--
	}
	names = append(names, "")
	starts = append(starts, 0)
	copy(names[i+1:], names[i:])
	copy(starts[i+1:], starts[i:])
	names[i] = name
	starts[i] = start
	return names, starts
}

// Execute replays the schedule starting at mission time offset against
// the supply. Demand beyond the instantaneous solar output is drawn
// from the battery; demand beyond solar plus the battery's maximum
// output is a hard failure, as is battery exhaustion. The battery may
// be nil when only solar accounting is wanted (any over-solar demand
// then fails).
func Execute(p *model.Problem, s schedule.Schedule, sup power.Supply, bat *power.Battery, offset model.Time) (Report, error) {
	return ExecuteUntil(p, s, sup, bat, offset, -1)
}

// ExecuteUntil replays only the first `until` seconds of the schedule
// (a negative until, or one at or beyond the finish time, replays the
// whole schedule). Whether the replay completes, stops at the horizon,
// or fails, the report carries the residual state — the violation
// instant when one occurred, plus the NotStarted and InFlight task
// sets at the stop instant — so an online rescheduler can build the
// contingency problem without re-deriving it from the event trace.
func ExecuteUntil(p *model.Problem, s schedule.Schedule, sup power.Supply, bat *power.Battery, offset, until model.Time) (Report, error) {
	rep := Report{Events: Trace(p, s), Finish: s.Finish(p.Tasks)}
	err := replayCore(&rep, p, s, sup, bat, offset, until)
	return rep, err
}

// replayCore is the second-by-second replay shared by ExecuteUntil and
// Replayer. It expects rep.Finish to be set and accounts everything
// else into rep. The float accumulation order (base power, then tasks
// in index order, per second) is part of the contract: campaign
// determinism relies on every replay path summing in the same order.
func replayCore(rep *Report, p *model.Problem, s schedule.Schedule, sup power.Supply, bat *power.Battery, offset, until model.Time) error {
	end := rep.Finish
	if until >= 0 && until < end {
		end = until
	}
	fail := func(t model.Time, err error) error {
		rep.Violated = true
		rep.ViolationAt = t
		rep.residual(p, s, t)
		return err
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
	rep.residual(p, s, end)
	return nil
}
