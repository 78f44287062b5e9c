package mission

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/rover"
)

// FaultKind classifies a scenario-scripted environment fault.
type FaultKind string

// Scenario fault kinds.
const (
	// FaultDropout is a total loss of solar output for a window.
	FaultDropout FaultKind = "dropout"
	// FaultBrownout scales the solar output by Factor for a window.
	FaultBrownout FaultKind = "brownout"
)

// FaultPhase is one scripted environment fault: a window of mission
// time during which the solar output is degraded. Scripted faults let
// a scenario pin down the off-nominal conditions a simulation must
// reproduce deterministically, independent of any randomized fault
// model layered on top.
type FaultPhase struct {
	Kind     FaultKind
	Start    model.Time
	Duration model.Time
	// Factor multiplies the solar output during the window (brownout
	// only; a dropout is factor 0 by definition).
	Factor float64
}

// Scenario is a mission description loaded from a scenario file.
type Scenario struct {
	Name        string
	TargetSteps int
	Phases      []Phase
	// Battery is nil when the scenario does not track one.
	Battery *power.Battery
	// Faults are the scripted environment fault windows, in file order.
	Faults []FaultPhase
}

// ParseScenario reads the line-oriented scenario format:
//
//	scenario <name>
//	steps <n>
//	battery <capacity-J> <maxpower-W>     # capacity 0 = untracked
//	phase <duration-s> <case> <solar-W>   # case: best|typical|worst
//	                                      # duration 0 = until done (last)
//	fault dropout <start-s> <duration-s>
//	fault brownout <start-s> <duration-s> <factor>
//
// '#' starts a comment; blank lines are ignored.
func ParseScenario(r io.Reader) (*Scenario, error) {
	sc := &Scenario{}
	scanner := bufio.NewScanner(r)
	lineno := 0
	for scanner.Scan() {
		lineno++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := sc.directive(fields); err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", lineno, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// ParseScenarioFile loads a scenario from the named file.
func ParseScenarioFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := ParseScenario(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

func (sc *Scenario) directive(f []string) error {
	switch f[0] {
	case "scenario":
		if len(f) != 2 {
			return fmt.Errorf("scenario wants <name>")
		}
		sc.Name = f[1]
	case "steps":
		if len(f) != 2 {
			return fmt.Errorf("steps wants <n>")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("bad steps %q", f[1])
		}
		sc.TargetSteps = n
	case "battery":
		if len(f) != 3 {
			return fmt.Errorf("battery wants <capacity-J> <maxpower-W>")
		}
		capacity, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return fmt.Errorf("bad capacity %q", f[1])
		}
		maxp, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return fmt.Errorf("bad max power %q", f[2])
		}
		sc.Battery = &power.Battery{Capacity: capacity, MaxPower: maxp}
	case "phase":
		if len(f) != 4 {
			return fmt.Errorf("phase wants <duration-s> <case> <solar-W>")
		}
		dur, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("bad duration %q", f[1])
		}
		var c rover.Case
		switch f[2] {
		case "best":
			c = rover.Best
		case "typical":
			c = rover.Typical
		case "worst":
			c = rover.Worst
		default:
			return fmt.Errorf("unknown case %q (want best|typical|worst)", f[2])
		}
		solar, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return fmt.Errorf("bad solar %q", f[3])
		}
		sc.Phases = append(sc.Phases, Phase{
			Duration: model.Time(dur),
			Cond:     Condition{Case: c, Solar: solar},
		})
	case "fault":
		if len(f) < 4 {
			return fmt.Errorf("fault wants <kind> <start-s> <duration-s> [factor]")
		}
		var fp FaultPhase
		switch f[1] {
		case string(FaultDropout):
			if len(f) != 4 {
				return fmt.Errorf("fault dropout wants <start-s> <duration-s>")
			}
			fp.Kind = FaultDropout
		case string(FaultBrownout):
			if len(f) != 5 {
				return fmt.Errorf("fault brownout wants <start-s> <duration-s> <factor>")
			}
			fp.Kind = FaultBrownout
			factor, err := strconv.ParseFloat(f[4], 64)
			if err != nil {
				return fmt.Errorf("bad factor %q", f[4])
			}
			fp.Factor = factor
		default:
			return fmt.Errorf("unknown fault kind %q (want dropout|brownout)", f[1])
		}
		start, err := strconv.Atoi(f[2])
		if err != nil {
			return fmt.Errorf("bad fault start %q", f[2])
		}
		dur, err := strconv.Atoi(f[3])
		if err != nil {
			return fmt.Errorf("bad fault duration %q", f[3])
		}
		fp.Start, fp.Duration = model.Time(start), model.Time(dur)
		sc.Faults = append(sc.Faults, fp)
	default:
		return fmt.Errorf("unknown directive %q", f[0])
	}
	return nil
}

func (sc *Scenario) validate() error {
	if len(sc.Phases) == 0 {
		return fmt.Errorf("scenario: no phases")
	}
	if sc.TargetSteps <= 0 {
		return fmt.Errorf("scenario: steps must be positive, got %d", sc.TargetSteps)
	}
	for i, ph := range sc.Phases {
		if ph.Duration == 0 && i != len(sc.Phases)-1 {
			return fmt.Errorf("scenario: only the final phase may have duration 0 (phase %d)", i+1)
		}
		if ph.Duration < 0 || !nonNegative(ph.Cond.Solar) {
			return fmt.Errorf("scenario: phase %d has negative or non-finite values", i+1)
		}
	}
	if sc.Battery != nil && !(nonNegative(sc.Battery.Capacity) && nonNegative(sc.Battery.MaxPower)) {
		return fmt.Errorf("scenario: battery has negative or non-finite values")
	}
	for i, fp := range sc.Faults {
		if fp.Start < 0 || fp.Duration <= 0 {
			return fmt.Errorf("scenario: fault %d needs start >= 0 and duration > 0", i+1)
		}
		if fp.Kind == FaultBrownout && !(fp.Factor >= 0 && fp.Factor < 1) {
			return fmt.Errorf("scenario: fault %d brownout factor %g outside [0,1)", i+1, fp.Factor)
		}
	}
	return nil
}

// nonNegative reports whether x is a finite number >= 0; NaN fails
// x >= 0, where it would pass x < 0.
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Config builds a simulator configuration for the scenario and policy.
func (sc *Scenario) Config(policy Policy) Config {
	return Config{
		TargetSteps: sc.TargetSteps,
		Phases:      sc.Phases,
		Policy:      policy,
		Battery:     sc.Battery,
	}
}

// FormatScenario renders a scenario in the file format; output
// round-trips through ParseScenario.
func FormatScenario(sc *Scenario) string {
	var b strings.Builder
	if sc.Name != "" {
		fmt.Fprintf(&b, "scenario %s\n", sc.Name)
	}
	fmt.Fprintf(&b, "steps %d\n", sc.TargetSteps)
	if sc.Battery != nil {
		fmt.Fprintf(&b, "battery %g %g\n", sc.Battery.Capacity, sc.Battery.MaxPower)
	}
	for _, ph := range sc.Phases {
		fmt.Fprintf(&b, "phase %d %s %g\n", ph.Duration, ph.Cond.Case, ph.Cond.Solar)
	}
	for _, fp := range sc.Faults {
		if fp.Kind == FaultBrownout {
			fmt.Fprintf(&b, "fault %s %d %d %g\n", fp.Kind, fp.Start, fp.Duration, fp.Factor)
		} else {
			fmt.Fprintf(&b, "fault %s %d %d\n", fp.Kind, fp.Start, fp.Duration)
		}
	}
	return b.String()
}
