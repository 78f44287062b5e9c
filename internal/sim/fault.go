package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/mission"
	"repro/internal/model"
)

// FaultModel parameterizes the randomized perturbations a run draws.
// Probabilities are per mission (per task for the task faults); the
// zero value injects nothing, so a zero-model campaign replays the
// nominal schedule and must survive every run.
type FaultModel struct {
	// OverrunProb is the chance a task overruns its nominal delay;
	// the overrun fraction is uniform in [0, OverrunFrac).
	OverrunProb float64
	OverrunFrac float64
	// FailProb is the chance each attempt of a task fails
	// transiently; a failed attempt is retried (re-executing the full
	// task) up to MaxRetries times, after which the failure is fatal.
	FailProb   float64
	MaxRetries int
	// BrownoutProb is the chance of one solar brownout window: solar
	// output scaled by BrownoutFrac for up to BrownoutDur seconds.
	BrownoutProb float64
	BrownoutFrac float64
	BrownoutDur  model.Time
	// DropoutProb is the chance of one total solar dropout window of
	// up to DropoutDur seconds.
	DropoutProb float64
	DropoutDur  model.Time
	// DegradeFrac bounds the uniform battery capacity degradation:
	// each run's capacity is scaled by 1 − U[0, DegradeFrac).
	DegradeFrac float64
}

// DefaultFaults is the campaign default: moderate rates of every
// fault class, calibrated so the paper's rover missions survive most
// runs but exercise the contingency rescheduler in the rest.
func DefaultFaults() FaultModel {
	return FaultModel{
		OverrunProb:  0.25,
		OverrunFrac:  0.5,
		FailProb:     0.05,
		MaxRetries:   2,
		BrownoutProb: 0.3,
		BrownoutFrac: 0.5,
		BrownoutDur:  60,
		DropoutProb:  0.15,
		DropoutDur:   30,
		DegradeFrac:  0.2,
	}
}

// MaxFaultRetries bounds the retries key of a parsed fault spec: a run
// draws up to retries+1 attempts per task without checking its context,
// so an unbounded count would let one request pin a core.
const MaxFaultRetries = 100

// ParseFaults parses the CLI's comma-separated key=value fault spec,
// starting from DefaultFaults. The empty string is the default model;
// "none" (or "off") disables all randomized faults. Keys: overrun,
// overrunfrac, fail, retries, brownout, brownoutfrac, brownoutdur,
// dropout, dropoutdur, degrade.
func ParseFaults(s string) (FaultModel, error) {
	switch strings.TrimSpace(s) {
	case "":
		return DefaultFaults(), nil
	case "none", "off":
		return FaultModel{}, nil
	}
	m := DefaultFaults()
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return m, fmt.Errorf("sim: fault spec %q is not key=value", kv)
		}
		prob := func(dst *float64) error {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || !(x >= 0 && x <= 1) {
				return fmt.Errorf("sim: %s wants a probability in [0,1], got %q", k, v)
			}
			*dst = x
			return nil
		}
		frac := func(dst *float64) error {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || !(x >= 0 && x < 1) {
				return fmt.Errorf("sim: %s wants a fraction in [0,1), got %q", k, v)
			}
			*dst = x
			return nil
		}
		dur := func(dst *model.Time) error {
			x, err := strconv.Atoi(v)
			if err != nil || x <= 0 {
				return fmt.Errorf("sim: %s wants a positive duration, got %q", k, v)
			}
			*dst = model.Time(x)
			return nil
		}
		var err error
		switch k {
		case "overrun":
			err = prob(&m.OverrunProb)
		case "overrunfrac":
			x, perr := strconv.ParseFloat(v, 64)
			if perr != nil || !(x >= 0) || math.IsInf(x, 1) {
				err = fmt.Errorf("sim: overrunfrac wants a finite fraction >= 0, got %q", v)
			} else {
				m.OverrunFrac = x
			}
		case "fail":
			err = prob(&m.FailProb)
		case "retries":
			x, perr := strconv.Atoi(v)
			if perr != nil || x < 0 || x > MaxFaultRetries {
				err = fmt.Errorf("sim: retries wants an int in [0,%d], got %q", MaxFaultRetries, v)
			} else {
				m.MaxRetries = x
			}
		case "brownout":
			err = prob(&m.BrownoutProb)
		case "brownoutfrac":
			err = frac(&m.BrownoutFrac)
		case "brownoutdur":
			err = dur(&m.BrownoutDur)
		case "dropout":
			err = prob(&m.DropoutProb)
		case "dropoutdur":
			err = dur(&m.DropoutDur)
		case "degrade":
			err = frac(&m.DegradeFrac)
		default:
			err = fmt.Errorf("sim: unknown fault key %q", k)
		}
		if err != nil {
			return m, err
		}
	}
	return m, nil
}

// window is one solar degradation interval [start, end) whose output
// is scaled by factor (0 for a dropout).
type window struct {
	start, end model.Time
	factor     float64
}

// runFaults is the realized perturbation of one run. Its task slices
// are indexed like the nominal plan's tasks.
type runFaults struct {
	// actual is each task's realized delay: nominal, scaled by any
	// overrun, multiplied by the retry count.
	actual []model.Time
	// fatal reports whether any task's transient failures exhausted
	// the retry budget; the mission is then lost outright.
	fatal bool
	// windows are the solar degradation intervals, scripted first.
	windows []window
	// degrade is the battery capacity loss fraction.
	degrade float64
}

// draw realizes one run's faults into f, reusing its storage: f's
// slices are truncated and refilled, so a campaign worker redraws every
// run without reallocating. The RNG consumption order is
// fixed — tasks in problem order (overrun, then retries), then
// brownout, dropout, degradation — so a given (model, seed, task set)
// always yields the same perturbation regardless of scheduling
// concurrency.
func (m FaultModel) draw(f *runFaults, rng *rand.Rand, tasks []model.Task, scripted []mission.FaultPhase, horizon model.Time) {
	f.actual = f.actual[:0]
	f.fatal = false
	f.windows = f.windows[:0]
	f.degrade = 0
	for _, t := range tasks {
		frac := 0.0
		if m.OverrunProb > 0 && rng.Float64() < m.OverrunProb {
			frac = rng.Float64() * m.OverrunFrac
		}
		fails := 0
		if m.FailProb > 0 {
			for fails <= m.MaxRetries && rng.Float64() < m.FailProb {
				fails++
			}
		}
		if fails > m.MaxRetries {
			f.fatal = true
		}
		d := model.Time(math.Ceil(float64(t.Delay) * (1 + frac)))
		if d < t.Delay {
			d = t.Delay
		}
		f.actual = append(f.actual, d*model.Time(1+fails))
	}
	for _, fp := range scripted {
		factor := fp.Factor
		if fp.Kind == mission.FaultDropout {
			factor = 0
		}
		f.windows = append(f.windows, window{start: fp.Start, end: fp.Start + fp.Duration, factor: factor})
	}
	if horizon < 1 {
		horizon = 1
	}
	maxDur := func(d model.Time) int {
		if d < 1 {
			return 1
		}
		return int(d)
	}
	if m.BrownoutProb > 0 && rng.Float64() < m.BrownoutProb {
		start := model.Time(rng.Intn(int(horizon)))
		dur := model.Time(1 + rng.Intn(maxDur(m.BrownoutDur)))
		f.windows = append(f.windows, window{start: start, end: start + dur, factor: m.BrownoutFrac})
	}
	if m.DropoutProb > 0 && rng.Float64() < m.DropoutProb {
		start := model.Time(rng.Intn(int(horizon)))
		dur := model.Time(1 + rng.Intn(maxDur(m.DropoutDur)))
		f.windows = append(f.windows, window{start: start, end: start + dur, factor: 0})
	}
	if m.DegradeFrac > 0 {
		f.degrade = rng.Float64() * m.DegradeFrac
	}
}
