package mission

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/rover"
)

func simulateBoth(t *testing.T) (jpl, pa Report) {
	t.Helper()
	cfgJPL := Config{TargetSteps: 48, Phases: PaperScenario(), Policy: &JPLPolicy{}}
	rj, err := Simulate(cfgJPL)
	if err != nil {
		t.Fatalf("JPL: %v", err)
	}
	cfgPA := Config{TargetSteps: 48, Phases: PaperScenario(), Policy: &PowerAwarePolicy{}}
	rp, err := Simulate(cfgPA)
	if err != nil {
		t.Fatalf("power-aware: %v", err)
	}
	return rj, rp
}

// TestTable4JPL reproduces the JPL column of Table 4: 16 steps per
// 600 s phase, 1800 s total, ~3554 J total (the paper's figure; we
// compute 3544 J because the paper's worst-case per-iteration cost is
// internally rounded — see EXPERIMENTS.md).
func TestTable4JPL(t *testing.T) {
	rj, _ := simulateBoth(t)
	for i, wantSteps := range []int{16, 16, 16} {
		if rj.Phases[i].Steps != wantSteps {
			t.Errorf("JPL phase %d steps = %d, want %d", i, rj.Phases[i].Steps, wantSteps)
		}
		if rj.Phases[i].Seconds != 600 {
			t.Errorf("JPL phase %d seconds = %d, want 600", i, rj.Phases[i].Seconds)
		}
	}
	if rj.TotalSeconds != 1800 {
		t.Errorf("JPL total time = %d, want 1800", rj.TotalSeconds)
	}
	wantCosts := []float64{0, 440, 3104}
	for i, w := range wantCosts {
		if math.Abs(rj.Phases[i].EnergyCost-w) > 1 {
			t.Errorf("JPL phase %d cost = %.1f, want %.0f", i, rj.Phases[i].EnergyCost, w)
		}
	}
}

// TestTable4PowerAware reproduces the power-aware column's shape: 24
// steps in the best phase, 20 in the typical phase, the last 4 finished
// quickly in the worst phase; total time 1350 s.
func TestTable4PowerAware(t *testing.T) {
	_, rp := simulateBoth(t)
	wantSteps := []int{24, 20, 4}
	for i, w := range wantSteps {
		if rp.Phases[i].Steps != w {
			t.Errorf("power-aware phase %d steps = %d, want %d", i, rp.Phases[i].Steps, w)
		}
	}
	if rp.TotalSeconds != 1350 {
		t.Errorf("power-aware total time = %d, want 1350", rp.TotalSeconds)
	}
	if rp.Phases[2].Seconds != 150 {
		t.Errorf("worst-phase time = %d, want 150", rp.Phases[2].Seconds)
	}
}

// TestTable4Improvements checks the headline claim: the power-aware
// schedules win on both performance and energy (paper: 33.3 % and
// 32.7 %).
func TestTable4Improvements(t *testing.T) {
	rj, rp := simulateBoth(t)
	timeImp := TimeImprovement(rj, rp)
	energyImp := EnergyImprovement(rj, rp)
	if math.Abs(timeImp-1.0/3.0) > 0.01 {
		t.Errorf("time improvement = %.3f, want ~0.333", timeImp)
	}
	if energyImp < 0.30 || energyImp > 0.40 {
		t.Errorf("energy improvement = %.3f, want ~0.33 (paper 0.327)", energyImp)
	}
}

func TestBatteryAccounting(t *testing.T) {
	bat := &power.Battery{MaxPower: 10}
	cfg := Config{TargetSteps: 48, Phases: PaperScenario(), Policy: &JPLPolicy{}, Battery: bat}
	rep, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.BatteryDrawn-rep.TotalCost) > 1e-9 {
		t.Errorf("battery drawn %.1f != total cost %.1f", rep.BatteryDrawn, rep.TotalCost)
	}
}

func TestBatteryExhaustionAbortsMission(t *testing.T) {
	bat := &power.Battery{MaxPower: 10, Capacity: 100} // far too small
	cfg := Config{TargetSteps: 48, Phases: PaperScenario(), Policy: &JPLPolicy{}, Battery: bat}
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("want battery-exhaustion error, got nil")
	}
}

func TestPhaseAttributionAtBoundary(t *testing.T) {
	// An iteration starting in phase 0 that runs past the boundary is
	// charged entirely to phase 0, as in the paper's accounting.
	phases := []Phase{
		{Duration: 80, Cond: Condition{Case: rover.Best, Solar: 14.9}},
		{Duration: 0, Cond: Condition{Case: rover.Worst, Solar: 9}},
	}
	rep, err := Simulate(Config{TargetSteps: 4, Phases: phases, Policy: &JPLPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	// Iteration 1 starts at t=0 (phase 0, 75 s); iteration 2 starts at
	// t=75 (still phase 0).
	if rep.Phases[0].Steps != 4 || rep.Phases[1].Steps != 0 {
		t.Errorf("phase attribution: %+v", rep.Phases)
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, err := Simulate(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := Simulate(Config{TargetSteps: 2}); err == nil {
		t.Error("missing phases should fail")
	}
	if _, err := Simulate(Config{TargetSteps: 2, Phases: PaperScenario()}); err == nil {
		t.Error("missing policy should fail")
	}
}

func TestFormatTableShape(t *testing.T) {
	rj, rp := simulateBoth(t)
	tbl := FormatTable(rj, rp)
	for _, want := range []string{"JPL", "power-aware", "total", "improvement"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	// Every row puts its '|' separators at the header's byte offsets,
	// whatever the length of its case name.
	var header []int
	for _, line := range strings.Split(tbl, "\n") {
		var at []int
		for i := range line {
			if line[i] == '|' {
				at = append(at, i)
			}
		}
		if len(at) == 0 {
			continue
		}
		if header == nil {
			header = at
		} else if !slices.Equal(at, header) {
			t.Errorf("separators at %v, header's at %v:\n%s", at, header, line)
		}
	}
	if len(header) != 2 {
		t.Errorf("header has %d separators, want 2:\n%s", len(header), tbl)
	}
}

// TestPreheatEverywhereExtension: enabling the pre-heat unrolling in
// all cases (a framework capability beyond the paper's manual best-case
// unroll) must never be slower than the paper's configuration.
func TestPreheatEverywhereExtension(t *testing.T) {
	_, rp := simulateBoth(t)
	all := &PowerAwarePolicy{Preheat: map[rover.Case]bool{rover.Best: true, rover.Typical: true, rover.Worst: true}}
	rep, err := Simulate(Config{TargetSteps: 48, Phases: PaperScenario(), Policy: all})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSeconds > rp.TotalSeconds {
		t.Errorf("preheat-everywhere total time %d > default %d", rep.TotalSeconds, rp.TotalSeconds)
	}
}
