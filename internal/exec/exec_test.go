package exec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/rover"
	"repro/internal/sched"
	"repro/internal/schedule"
)

func simpleProblem() (*model.Problem, schedule.Schedule) {
	p := &model.Problem{
		Name: "ex",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 3, Power: 4},
			{Name: "b", Resource: "B", Delay: 2, Power: 6},
		},
		BasePower: 1,
	}
	return p, schedule.Schedule{Start: []model.Time{0, 3}}
}

func TestTraceOrderAndPower(t *testing.T) {
	p, s := simpleProblem()
	evs := Trace(p, s)
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	// a starts (5 W), a finishes (1 W), b starts (7 W), b finishes (1 W).
	want := []struct {
		t    model.Time
		kind EventKind
		task string
		pw   float64
	}{
		{0, TaskStart, "a", 5},
		{3, TaskFinish, "a", 1},
		{3, TaskStart, "b", 7},
		{5, TaskFinish, "b", 1},
	}
	for i, w := range want {
		e := evs[i]
		if e.T != w.t || e.Kind != w.kind || e.Task != w.task || math.Abs(e.SystemPower-w.pw) > 1e-12 {
			t.Errorf("event %d = %+v, want %+v", i, e, w)
		}
	}
}

func TestTraceFinishBeforeStartAtSameInstant(t *testing.T) {
	p, s := simpleProblem()
	evs := Trace(p, s)
	// At t=3 the finish of a must precede the start of b.
	if evs[1].Kind != TaskFinish || evs[2].Kind != TaskStart {
		t.Fatalf("tie-break wrong: %+v then %+v", evs[1], evs[2])
	}
}

func TestExecuteSolarOnly(t *testing.T) {
	p, s := simpleProblem()
	sup := power.Supply{Solar: power.NewSolar(10)}
	rep, err := Execute(p, s, sup, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Demand: 5 W for [0,3), 7 W for [3,5): energy 15+14 = 29.
	if math.Abs(rep.Energy-29) > 1e-9 {
		t.Errorf("energy = %g, want 29", rep.Energy)
	}
	if rep.BatteryUsed != 0 || math.Abs(rep.SolarUsed-29) > 1e-9 {
		t.Errorf("split = solar %g battery %g", rep.SolarUsed, rep.BatteryUsed)
	}
	if math.Abs(rep.SolarWasted-(50-29)) > 1e-9 {
		t.Errorf("wasted = %g, want 21", rep.SolarWasted)
	}
	if rep.PeakDemand != 7 {
		t.Errorf("peak = %g, want 7", rep.PeakDemand)
	}
}

func TestExecuteBatteryTopUp(t *testing.T) {
	p, s := simpleProblem()
	sup := power.Supply{Solar: power.NewSolar(4)}
	bat := &power.Battery{MaxPower: 5, Capacity: 100}
	rep, err := Execute(p, s, sup, bat, 0)
	if err != nil {
		t.Fatal(err)
	}
	// [0,3): demand 5, solar 4 -> battery 1/s; [3,5): demand 7 -> 3/s.
	if math.Abs(rep.BatteryUsed-(3*1+2*3)) > 1e-9 {
		t.Errorf("battery used = %g, want 9", rep.BatteryUsed)
	}
	if math.Abs(bat.Drawn()-rep.BatteryUsed) > 1e-9 {
		t.Error("battery ledger disagrees with report")
	}
}

func TestExecuteOverBudgetFails(t *testing.T) {
	p, s := simpleProblem()
	sup := power.Supply{Solar: power.NewSolar(4)}
	bat := &power.Battery{MaxPower: 2} // 4+2 = 6 < 7 W demand at t=3
	_, err := Execute(p, s, sup, bat, 0)
	if err == nil || !strings.Contains(err.Error(), "exceeds available") {
		t.Fatalf("err = %v, want over-budget failure", err)
	}
}

func TestExecuteNoBatteryOverSolarFails(t *testing.T) {
	p, s := simpleProblem()
	sup := power.Supply{Solar: power.NewSolar(6)}
	if _, err := Execute(p, s, sup, nil, 0); err == nil {
		t.Fatal("7 W demand on 6 W solar without battery succeeded")
	}
}

func TestExecuteBatteryExhaustion(t *testing.T) {
	p, s := simpleProblem()
	sup := power.Supply{Solar: power.NewSolar(0)}
	bat := &power.Battery{MaxPower: 10, Capacity: 10}
	_, err := Execute(p, s, sup, bat, 0)
	if err == nil {
		t.Fatal("exhausted battery not detected")
	}
}

// TestExecuteMidSchedulePhaseChange: the solar output drops while the
// schedule runs; battery draw increases from that instant — something
// the static Pmin metrics cannot express.
func TestExecuteMidSchedulePhaseChange(t *testing.T) {
	p, s := simpleProblem()
	sol := power.NewSolar(10)
	sol.AddPhase(2, 3) // drops to 3 W at t=2
	sup := power.Supply{Solar: sol}
	bat := &power.Battery{MaxPower: 10, Capacity: 1000}
	rep, err := Execute(p, s, sup, bat, 0)
	if err != nil {
		t.Fatal(err)
	}
	// [0,2): solar covers 5 W. [2,3): 5-3=2 from battery.
	// [3,5): 7-3=4 per second from battery. Total 2+8 = 10.
	if math.Abs(rep.BatteryUsed-10) > 1e-9 {
		t.Errorf("battery used = %g, want 10", rep.BatteryUsed)
	}
}

// TestExecuteOffsetShiftsPhases: executing the same schedule later in
// mission time sees different solar conditions.
func TestExecuteOffsetShiftsPhases(t *testing.T) {
	p, s := simpleProblem()
	sol := power.NewSolar(10)
	sol.AddPhase(100, 3)
	sup := power.Supply{Solar: sol}
	early, err := Execute(p, s, sup, &power.Battery{MaxPower: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := Execute(p, s, sup, &power.Battery{MaxPower: 10}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if early.BatteryUsed != 0 {
		t.Errorf("early battery = %g, want 0", early.BatteryUsed)
	}
	if late.BatteryUsed <= early.BatteryUsed {
		t.Error("late execution should cost battery energy")
	}
}

// TestExecuteRoverMatchesStaticCost: under constant solar the
// executor's battery usage equals the static energy cost Ec(Pmin) of
// the schedule — the two accounting paths agree.
func TestExecuteRoverMatchesStaticCost(t *testing.T) {
	for _, c := range rover.Cases {
		prob := rover.BuildIteration(c, rover.Cold)
		r, err := sched.Run(prob, sched.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		par := rover.Table2(c)
		sup := power.Supply{Solar: power.NewSolar(par.Solar)}
		bat := &power.Battery{MaxPower: par.BatteryMax}
		rep, err := Execute(prob, r.Schedule, sup, bat, 0)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if math.Abs(rep.BatteryUsed-r.EnergyCost()) > 1e-9 {
			t.Errorf("%s: executor battery %g != static cost %g", c, rep.BatteryUsed, r.EnergyCost())
		}
	}
}

// TestExecuteViolationResidualSolarDropout: the solar output drops to
// zero mid-schedule with no battery; the report must pin the exact
// violation instant and account exactly the seconds before it. (The
// in-flight/not-started split at that instant is sim's, tested there.)
func TestExecuteViolationResidualSolarDropout(t *testing.T) {
	p := &model.Problem{
		Name: "dropout",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 4, Power: 3},
			{Name: "b", Resource: "B", Delay: 4, Power: 3},
			{Name: "c", Resource: "C", Delay: 2, Power: 3},
		},
		BasePower: 1,
	}
	s := schedule.Schedule{Start: []model.Time{0, 2, 6}}
	sol := power.NewSolar(10)
	sol.AddPhase(3, 0) // total dropout at t=3
	rep, err := Execute(p, s, power.Supply{Solar: sol}, nil, 0)
	if err == nil {
		t.Fatal("dropout with no battery did not fail")
	}
	if !rep.Violated || rep.ViolationAt != 3 || rep.StoppedAt != 3 {
		t.Fatalf("violation at %d (stopped %d, violated %v), want instant 3",
			rep.ViolationAt, rep.StoppedAt, rep.Violated)
	}
	// Seconds [0,3) were accounted: demand 4 W, 4 W, 7 W.
	if math.Abs(rep.Energy-15) > 1e-9 {
		t.Errorf("energy = %g, want 15 (three accounted seconds)", rep.Energy)
	}
}

// TestExecuteViolationResidualBatteryBoundary: the battery holds
// exactly the energy for the first k seconds and is depleted at the
// boundary second — the violation must land on k, not k±1, and the
// ledgers must account exactly [0,k).
func TestExecuteViolationResidualBatteryBoundary(t *testing.T) {
	p := &model.Problem{
		Name: "boundary",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 6, Power: 5},
		},
		BasePower: 0,
	}
	s := schedule.Schedule{Start: []model.Time{0}}
	// No solar: every second draws 5 J from the battery. Capacity 20 J
	// covers exactly seconds 0..3; second 4 must fail.
	bat := &power.Battery{MaxPower: 10, Capacity: 20}
	rep, err := Execute(p, s, power.Supply{Solar: power.NewSolar(0)}, bat, 0)
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err = %v, want battery exhaustion", err)
	}
	if rep.ViolationAt != 4 {
		t.Fatalf("violation at %d, want boundary second 4", rep.ViolationAt)
	}
	if math.Abs(rep.BatteryUsed-20) > 1e-9 || math.Abs(bat.Drawn()-20) > 1e-9 {
		t.Errorf("battery used = %g (ledger %g), want exactly 20", rep.BatteryUsed, bat.Drawn())
	}
	if math.Abs(rep.Energy-20) > 1e-9 {
		t.Errorf("energy = %g, want 20 (failed second not accounted)", rep.Energy)
	}
	if rep.StoppedAt != 4 {
		t.Errorf("stopped at %d, want 4", rep.StoppedAt)
	}
}

// TestExecuteUntilPartialReplay: a horizon short of the finish stops
// the replay cleanly there, with no trace and no allocation.
func TestExecuteUntilPartialReplay(t *testing.T) {
	p, s := simpleProblem() // a [0,3), b [3,5)
	sup := power.Supply{Solar: power.NewSolar(10)}
	rep, err := ExecuteUntil(p, s, sup, nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated || rep.StoppedAt != 2 {
		t.Fatalf("stopped at %d (violated %v), want clean stop at 2", rep.StoppedAt, rep.Violated)
	}
	if rep.Events != nil {
		t.Errorf("ExecuteUntil built a trace of %d events", len(rep.Events))
	}
	if math.Abs(rep.Energy-10) > 1e-9 { // two seconds at 5 W
		t.Errorf("energy = %g, want 10", rep.Energy)
	}
	// Beyond the finish the replay completes and stops at the finish,
	// with the ledgers Execute reports.
	rep, err = ExecuteUntil(p, s, sup, nil, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Execute(p, s, sup, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoppedAt != rep.Finish || rep.Finish != full.Finish || rep.Energy != full.Energy ||
		rep.SolarUsed != full.SolarUsed || rep.SolarWasted != full.SolarWasted || rep.PeakDemand != full.PeakDemand {
		t.Errorf("full replay = %+v, Execute = %+v", rep, full)
	}
	if len(full.Events) != 2*len(p.Tasks) {
		t.Errorf("Execute trace has %d events, want %d", len(full.Events), 2*len(p.Tasks))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := ExecuteUntil(p, s, sup, nil, 0, -1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("successful ExecuteUntil: %.0f allocs, want 0", allocs)
	}
}
