// Package mission simulates the paper's section 6 mission scenario
// (Table 4): the rover must travel a fixed number of steps while the
// available solar power — and with it the temperature-dependent task
// powers — changes over mission time. A scheduling policy supplies one
// iteration at a time; the simulator advances the clock, counts steps,
// and charges the battery for energy drawn above the free solar level.
package mission

import (
	"errors"
	"fmt"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/rover"
	"repro/internal/sched"
	"repro/internal/service"
)

// Condition is the environment at an instant of mission time.
type Condition struct {
	// Case selects the Table 2 parameter set in force.
	Case rover.Case
	// Solar is the free power level in watts (normally
	// rover.Table2(Case).Solar, kept explicit for experiments that
	// decouple the two).
	Solar float64
}

// Phase is a span of mission time under one condition.
type Phase struct {
	// Duration of the phase in seconds; 0 on the final phase means it
	// lasts until the mission completes.
	Duration model.Time
	Cond     Condition
}

// PaperScenario returns the Table 4 staircase: 14.9 W for 600 s, then
// 12 W for 600 s, then 9 W until done.
func PaperScenario() []Phase {
	return []Phase{
		{Duration: 600, Cond: Condition{Case: rover.Best, Solar: 14.9}},
		{Duration: 600, Cond: Condition{Case: rover.Typical, Solar: 12}},
		{Duration: 0, Cond: Condition{Case: rover.Worst, Solar: 9}},
	}
}

// Iteration is one executed schedule iteration as seen by the
// simulator.
type Iteration struct {
	// Name labels the schedule used.
	Name string
	// Duration is the iteration's finish time tau.
	Duration model.Time
	// EnergyCost is the battery energy the iteration draws.
	EnergyCost float64
	// Steps moved during the iteration.
	Steps int
}

// Policy chooses the next iteration for the current condition. Reset
// clears any internal state (e.g. motor warmth) before a new mission.
type Policy interface {
	Next(cond Condition) (Iteration, error)
	Reset()
	Name() string
}

// PhaseReport aggregates the iterations that started inside one phase,
// matching a row of Table 4.
type PhaseReport struct {
	Cond       Condition
	Steps      int
	Seconds    model.Time
	EnergyCost float64
}

// Report is the outcome of a simulated mission.
type Report struct {
	Policy       string
	Phases       []PhaseReport
	TotalSteps   int
	TotalSeconds model.Time
	TotalCost    float64
	// BatteryDrawn echoes the battery ledger when a battery was
	// configured.
	BatteryDrawn float64
}

// Config describes a mission.
type Config struct {
	// TargetSteps is the travel distance in 7 cm steps (48 in the
	// paper's scenario).
	TargetSteps int
	// Phases is the solar staircase; the final phase is unbounded if
	// its Duration is 0.
	Phases []Phase
	// Policy supplies iterations.
	Policy Policy
	// Battery, when non-nil, has every iteration's energy cost debited
	// against it and aborts the mission when exhausted.
	Battery *power.Battery
	// MaxIterations guards against non-terminating policies
	// (default 10000).
	MaxIterations int
}

// phaseAt returns the index of the phase containing mission time t.
func phaseAt(phases []Phase, t model.Time) int {
	var start model.Time
	for i, ph := range phases {
		if ph.Duration == 0 || t < start+ph.Duration {
			return i
		}
		start += ph.Duration
	}
	return len(phases) - 1
}

// Simulate runs the mission to completion (or battery exhaustion).
// Each iteration executes under the condition in force at its start
// time, exactly as the paper attributes whole iterations to time
// frames.
func Simulate(cfg Config) (Report, error) {
	if cfg.TargetSteps <= 0 {
		return Report{}, fmt.Errorf("mission: target steps must be positive, got %d", cfg.TargetSteps)
	}
	if len(cfg.Phases) == 0 {
		return Report{}, fmt.Errorf("mission: no phases")
	}
	if cfg.Policy == nil {
		return Report{}, fmt.Errorf("mission: no policy")
	}
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 10000
	}
	rep, exhausted, err := fly(cfg.Phases, cfg.Policy, cfg.Battery, cfg.TargetSteps, maxIter)
	switch {
	case errors.Is(err, errMaxIterations):
		return rep, fmt.Errorf("mission: exceeded %d iterations at %d/%d steps", maxIter, rep.TotalSteps, cfg.TargetSteps)
	case err != nil:
		return rep, err
	case exhausted != nil:
		return rep, fmt.Errorf("mission: t=%d: %w", rep.TotalSeconds, exhausted)
	}
	return rep, nil
}

// Range runs the policy until the battery is exhausted and reports how
// far the rover got — the mission-lifetime question the paper opens
// with ("the life-time of its mission is limited by the amount of
// remaining battery energy"). Exhaustion is the expected outcome, not
// an error; the error return covers policy failures and runaway
// configurations only.
func Range(phases []Phase, policy Policy, bat *power.Battery, maxIterations int) (Report, error) {
	if len(phases) == 0 {
		return Report{}, fmt.Errorf("mission: no phases")
	}
	if bat == nil || bat.Capacity <= 0 {
		return Report{}, fmt.Errorf("mission: Range needs a capacity-tracked battery")
	}
	if maxIterations == 0 {
		maxIterations = 100000
	}
	rep, _, err := fly(phases, policy, bat, 0, maxIterations)
	if errors.Is(err, errMaxIterations) {
		return rep, fmt.Errorf("mission: exceeded %d iterations with battery remaining", maxIterations)
	}
	return rep, err
}

// errMaxIterations stops fly at its iteration cap; Simulate and Range
// each report it in their own words.
var errMaxIterations = errors.New("mission: iteration cap reached")

// fly is the mission loop Simulate and Range share. It resets the
// policy and flies one iteration at a time under the condition in
// force at the iteration's start, debiting bat when it is non-nil,
// until target steps are covered (target <= 0: no target) or bat
// cannot cover the next iteration. That draw's error comes back as
// exhausted, with the report covering the iterations before it.
func fly(phases []Phase, policy Policy, bat *power.Battery, target, maxIter int) (rep Report, exhausted, err error) {
	policy.Reset()
	rep = Report{Policy: policy.Name(), Phases: make([]PhaseReport, len(phases))}
	for i := range rep.Phases {
		rep.Phases[i].Cond = phases[i].Cond
	}
	for iter := 0; target <= 0 || rep.TotalSteps < target; iter++ {
		if iter >= maxIter {
			return rep, nil, errMaxIterations
		}
		t := rep.TotalSeconds
		pi := phaseAt(phases, t)
		it, err := policy.Next(phases[pi].Cond)
		if err != nil {
			return rep, nil, fmt.Errorf("mission: t=%d: %w", t, err)
		}
		if it.Duration <= 0 || it.Steps <= 0 {
			return rep, nil, fmt.Errorf("mission: policy returned a degenerate iteration %+v", it)
		}
		if bat != nil {
			if exhausted = bat.Draw(it.EnergyCost); exhausted != nil {
				break
			}
		}
		rep.Phases[pi].Steps += it.Steps
		rep.Phases[pi].Seconds += it.Duration
		rep.Phases[pi].EnergyCost += it.EnergyCost
		rep.TotalSteps += it.Steps
		rep.TotalSeconds += it.Duration
	}
	for _, ph := range rep.Phases {
		rep.TotalCost += ph.EnergyCost
	}
	if bat != nil {
		rep.BatteryDrawn = bat.Drawn()
	}
	return rep, exhausted, nil
}

// JPLPolicy replays the fixed, fully serialized baseline schedule
// regardless of conditions: 75 s and two steps per iteration, with the
// energy cost that schedule incurs under the current case's powers.
type JPLPolicy struct {
	// Svc memoizes the per-case iteration summary; nil selects the
	// process-wide service.Shared().
	Svc *service.Service
}

// Name implements Policy.
func (*JPLPolicy) Name() string { return "JPL" }

// Reset implements Policy.
func (p *JPLPolicy) Reset() {}

// Next implements Policy.
func (p *JPLPolicy) Next(cond Condition) (Iteration, error) {
	svc := p.Svc
	if svc == nil {
		svc = service.Shared()
	}
	key := fmt.Sprintf("mission/jpl/%s", cond.Case)
	v, err := svc.Memo(key, func() (any, error) {
		prob, s := rover.JPL(cond.Case)
		m := rover.Measure(prob, s)
		return Iteration{
			Name:       fmt.Sprintf("jpl-%s", cond.Case),
			Duration:   m.Finish,
			EnergyCost: m.EnergyCost,
			Steps:      rover.StepsPerIteration,
		}, nil
	})
	if err != nil {
		return Iteration{}, err
	}
	return v.(Iteration), nil
}

// PowerAwarePolicy runs the paper's power-aware schedules: per case, a
// schedule computed by the full pipeline. For cases listed in Preheat
// the policy unrolls the loop as in Fig. 9 — the first iteration after
// a condition change is cold with inserted pre-heat tasks and
// subsequent iterations run warm.
type PowerAwarePolicy struct {
	// Preheat marks the cases using the pre-heat unrolling. The paper
	// applies it in the best case only; nil selects that default.
	// Assign an explicitly empty (non-nil) map to disable pre-heating
	// everywhere.
	Preheat map[rover.Case]bool
	// Opts tunes the underlying scheduler.
	Opts sched.Options
	// Svc is the scheduling service the policy computes through; nil
	// selects the process-wide service.Shared(). Schedules are cached
	// content-addressed, so repeated missions (and any other component
	// scheduling the same iterations) compute each schedule once.
	Svc *service.Service

	warmCase rover.Case
	warm     bool
}

// Name implements Policy.
func (*PowerAwarePolicy) Name() string { return "power-aware" }

// Reset implements Policy.
func (p *PowerAwarePolicy) Reset() { p.warm = false }

// Next implements Policy.
func (p *PowerAwarePolicy) Next(cond Condition) (Iteration, error) {
	if p.Preheat == nil {
		p.Preheat = map[rover.Case]bool{rover.Best: true}
	}
	svc := p.Svc
	if svc == nil {
		svc = service.Shared()
	}
	kind := rover.Cold
	if p.Preheat[cond.Case] {
		if p.warm && p.warmCase == cond.Case {
			kind = rover.Warm
		} else {
			kind = rover.ColdPreheat
		}
	}
	key := fmt.Sprintf("%s/%s", cond.Case, kind)
	prob := rover.BuildIteration(cond.Case, kind)
	r, err := svc.Schedule(prob, p.Opts, service.StageMinPower)
	if err != nil {
		return Iteration{}, fmt.Errorf("scheduling %s: %w", key, err)
	}
	it := Iteration{
		Name:       key,
		Duration:   r.Finish(),
		EnergyCost: r.EnergyCost(),
		Steps:      rover.StepsPerIteration,
	}
	// An iteration that inserts pre-heat tasks leaves the motors warm
	// for the next iteration of the same condition.
	p.warm = kind == rover.ColdPreheat || kind == rover.Warm
	p.warmCase = cond.Case
	return it, nil
}

// FormatTable renders two reports side by side in the shape of the
// paper's Table 4.
func FormatTable(a, b Report) string {
	out := fmt.Sprintf("%-22s | %22s | %22s\n", "phase", a.Policy, b.Policy)
	out += fmt.Sprintf("%-22s | %6s %6s %8s | %6s %6s %8s\n",
		"", "steps", "sec", "cost(J)", "steps", "sec", "cost(J)")
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		out += fmt.Sprintf("%-6s solar=%-7.4gW | %6d %6d %8.1f | %6d %6d %8.1f\n",
			pa.Cond.Case, pa.Cond.Solar,
			pa.Steps, pa.Seconds, pa.EnergyCost,
			pb.Steps, pb.Seconds, pb.EnergyCost)
	}
	out += fmt.Sprintf("%-22s | %6d %6d %8.1f | %6d %6d %8.1f\n", "total",
		a.TotalSteps, a.TotalSeconds, a.TotalCost,
		b.TotalSteps, b.TotalSeconds, b.TotalCost)
	if b.TotalSeconds > 0 && a.TotalCost > 0 {
		out += fmt.Sprintf("improvement: time %.1f%% (speed-up), energy %.1f%% (savings)\n",
			100*TimeImprovement(a, b), 100*EnergyImprovement(a, b))
	}
	return out
}

// TimeImprovement returns the speed-up of b over a relative to b's
// time, the convention of the paper's Table 4 (450 s saved over 1350 s
// = 33.3 %).
func TimeImprovement(a, b Report) float64 {
	return float64(a.TotalSeconds-b.TotalSeconds) / float64(b.TotalSeconds)
}

// EnergyImprovement returns b's energy savings relative to a's cost
// (Table 4: 32.7 %).
func EnergyImprovement(a, b Report) float64 {
	return (a.TotalCost - b.TotalCost) / a.TotalCost
}
