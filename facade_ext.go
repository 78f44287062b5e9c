package impacct

import (
	"repro/internal/baseline"
	"repro/internal/corners"
	"repro/internal/editor"
	"repro/internal/exact"
	"repro/internal/exec"
	"repro/internal/shape"
	"repro/internal/verify"
)

// Independent verification (see internal/verify).
type (
	// VerifyReport is the outcome of an independent schedule check.
	VerifyReport = verify.Report
	// Violation is one independently detected schedule defect.
	Violation = verify.Violation
)

// Verify independently re-checks a schedule against its problem using
// algorithms disjoint from the scheduler's own (pairwise scans,
// per-second sampling). Use it as an acceptance gate before deploying
// a schedule. A heterogeneous schedule is checked against the resolved
// problem it executes, its result's EffectiveProblem; an unresolved
// heterogeneous problem is reported as a bad assignment.
func Verify(p *Problem, s Schedule) VerifyReport { return verify.Check(p, s) }

// Interactive editing (see internal/editor).

// Session is an interactive scheduling session: move and lock task
// bins as in the paper's power-aware Gantt chart tool, re-run the
// automated pipeline around the locks, and undo/redo freely.
type Session = editor.Session

// NewSession starts an interactive session from the automated
// pipeline's schedule.
func NewSession(p *Problem, opts Options) (*Session, error) { return editor.New(p, opts) }

// NewSessionWith starts an interactive session from an existing valid
// schedule.
func NewSessionWith(p *Problem, s Schedule, opts Options) (*Session, error) {
	return editor.NewWithSchedule(p, s, opts)
}

// Corner analysis (see internal/corners).
type (
	// TriPower is a (min, typical, max) power value.
	TriPower = corners.TriPower
	// CornerModel assigns power corners to a problem's tasks.
	CornerModel = corners.Model
	// CornerReport evaluates one conservative schedule at all corners.
	CornerReport = corners.Report
)

// Corners.
const (
	CornerMin = corners.Min
	CornerTyp = corners.Typ
	CornerMax = corners.Max
)

// ConservativeCorners schedules once at the max power corner and
// evaluates the schedule under every corner.
func ConservativeCorners(p *Problem, m CornerModel, opts Options) (CornerReport, error) {
	return corners.Conservative(p, m, opts)
}

// PerCornerSchedules schedules the problem independently at each
// corner (the power-aware, one-schedule-per-condition approach).
func PerCornerSchedules(p *Problem, m CornerModel, opts Options) ([]corners.PerCornerResult, error) {
	return corners.PerCorner(p, m, opts)
}

// Execution replay (see internal/exec).
type (
	// ExecReport is the outcome of replaying a schedule against live
	// power sources.
	ExecReport = exec.Report
	// ExecEvent is one entry of an execution trace.
	ExecEvent = exec.Event
)

// TraceSchedule derives the ordered start/finish event log of a
// schedule.
func TraceSchedule(p *Problem, s Schedule) []ExecEvent { return exec.Trace(p, s) }

// Execute replays the schedule against a time-varying supply starting
// at the given mission time, drawing battery energy as needed.
func Execute(p *Problem, s Schedule, sup Supply, bat *Battery, offset Time) (ExecReport, error) {
	return exec.Execute(p, s, sup, bat, offset)
}

// Exact reference solving (see internal/exact).
type (
	// ExactConfig bounds the exhaustive search.
	ExactConfig = exact.Config
	// ExactSolution is a provably optimal (or best-found) schedule.
	ExactSolution = exact.Solution
)

// SolveExactMinFinish finds the minimum-makespan schedule of a small
// instance by branch-and-bound.
func SolveExactMinFinish(p *Problem, cfg ExactConfig) (ExactSolution, error) {
	return exact.Solve(p, exact.MinFinish, cfg)
}

// SolveExactMinCost finds the minimum-energy-cost schedule of a small
// instance by branch-and-bound.
func SolveExactMinCost(p *Problem, cfg ExactConfig) (ExactSolution, error) {
	return exact.Solve(p, exact.MinEnergyCost, cfg)
}

// Time-varying task power (see internal/shape).
type (
	// PowerShape is a piecewise-constant power curve over a task's
	// execution (e.g. motor inrush then steady draw).
	PowerShape = shape.Shape
	// ShapedProblem pairs a problem with per-task power shapes.
	ShapedProblem = shape.Problem
	// ShapedResult is a conservative schedule evaluated under the true
	// shapes.
	ShapedResult = shape.Result
)

// ConstantShape builds a flat power shape.
func ConstantShape(d Time, p float64) PowerShape { return shape.Constant(d, p) }

// InrushShape builds a surge-then-steady motor shape.
func InrushShape(d, inrushDur Time, inrushPower, steady float64) PowerShape {
	return shape.Inrush(d, inrushDur, inrushPower, steady)
}

// RunShaped schedules a shaped problem conservatively (peak-power
// lowering) and evaluates it under the true shapes.
func RunShaped(sp *ShapedProblem, opts Options) (*ShapedResult, error) {
	return shape.Run(sp, opts)
}

// ListSchedule runs the conventional greedy power-constrained list
// scheduler — the algorithmic baseline the pipeline is compared
// against (see internal/baseline).
func ListSchedule(p *Problem, horizon Time) (Schedule, error) {
	return baseline.ListSchedule(p, horizon)
}
