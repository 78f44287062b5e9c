package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mission"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/service"
)

// chainMission is a three-task serial chain on one resource under
// constant 10 W solar with a small untracked battery: demand is
// 1 W base + 5 W task = 6 W, comfortably solar-powered, so a
// zero-fault run never touches the battery.
func chainMission() Mission {
	p := &model.Problem{
		Name:      "chain",
		BasePower: 1,
		Tasks: []model.Task{
			{Name: "a", Resource: "cpu", Delay: 2, Power: 5},
			{Name: "b", Resource: "cpu", Delay: 2, Power: 5},
			{Name: "c", Resource: "cpu", Delay: 2, Power: 5},
		},
		Constraints: []model.Constraint{
			{From: "a", To: "b", Min: 2},
			{From: "b", To: "c", Min: 2},
		},
	}
	return Mission{
		Problem: p,
		Phases:  []mission.Phase{{Cond: mission.Condition{Solar: 10}}},
		Battery: power.Battery{Capacity: 0, MaxPower: 2},
	}
}

// runSingle runs one seeded run the way a campaign worker does: hoist
// the nominal plan, then run on a fresh scratch, with the defaults
// ReduceRange would resolve.
func runSingle(cfg runConfig) RunResult {
	cfg.Svc = service.New(service.Config{Workers: 1})
	cfg.MaxReschedules = DefaultMaxReschedules
	return runOne(context.Background(), cfg, newRunScratch(), hoistNominal(context.Background(), cfg))
}

func TestRunNominal(t *testing.T) {
	res := runSingle(runConfig{
		Mission: chainMission(),
		Seed:    1,
	})
	if !res.Survived || res.Failure != "" {
		t.Fatalf("nominal run did not survive: %+v", res)
	}
	if res.Finish != 6 {
		t.Errorf("Finish = %d, want 6", res.Finish)
	}
	if res.Reschedules != 0 || res.Waits != 0 || res.EnergyCost != 0 {
		t.Errorf("nominal run should be fault-free: %+v", res)
	}
	if res.DeadlineMiss {
		t.Errorf("nominal run missed the deadline: %+v", res)
	}
}

func TestRunScriptedDropout(t *testing.T) {
	m := chainMission()
	// Total solar loss over [3,7): the replay violates at t=3 (demand
	// 6 W vs 2 W battery output), no contingency fits a 2 W budget, so
	// the run idles on base power until solar returns at t=7 and
	// reschedules the in-flight b plus the pending c.
	m.Faults = []mission.FaultPhase{{Kind: mission.FaultDropout, Start: 3, Duration: 4}}
	res := runSingle(runConfig{
		Mission: m,
		Seed:    1,
	})
	if !res.Survived || res.Failure != "" {
		t.Fatalf("dropout run did not survive: %+v", res)
	}
	if res.Reschedules != 1 || res.Waits != 1 {
		t.Errorf("Reschedules = %d, Waits = %d, want 1, 1", res.Reschedules, res.Waits)
	}
	// b restarts at 7, c follows: finish 7 + 4 = 11.
	if res.Finish != 11 {
		t.Errorf("Finish = %d, want 11", res.Finish)
	}
	// Battery served only the 1 W base load over the 4 s blackout.
	if res.EnergyCost != 4 {
		t.Errorf("EnergyCost = %g, want 4", res.EnergyCost)
	}
}

func TestRunFatalTaskFailure(t *testing.T) {
	res := runSingle(runConfig{
		Mission: chainMission(),
		Faults:  FaultModel{FailProb: 1, MaxRetries: 0},
		Seed:    7,
	})
	if res.Survived || res.Failure != FailTask {
		t.Fatalf("Failure = %q, Survived = %v, want %q", res.Failure, res.Survived, FailTask)
	}
}

func TestRunPermanentBlackoutInfeasible(t *testing.T) {
	m := chainMission()
	m.Phases = []mission.Phase{
		{Duration: 3, Cond: mission.Condition{Solar: 10}},
		{Cond: mission.Condition{Solar: 0}},
	}
	m.Battery = power.Battery{Capacity: 1000, MaxPower: 2}
	res := runSingle(runConfig{
		Mission: m,
		Seed:    1,
	})
	if res.Survived {
		t.Fatalf("run survived a permanent blackout: %+v", res)
	}
	if res.Failure != FailInfeasible {
		t.Fatalf("Failure = %q, want %q", res.Failure, FailInfeasible)
	}
}

func TestTimingConflict(t *testing.T) {
	p := &model.Problem{
		Tasks: []model.Task{
			{Name: "a", Resource: "cpu", Delay: 2, Power: 1},
			{Name: "b", Resource: "cpu", Delay: 2, Power: 1},
			{Name: "c", Resource: "arm", Delay: 2, Power: 1},
		},
		Constraints: []model.Constraint{
			{From: "a", To: "c", Min: 2}, // finish-to-start dependency
		},
	}
	s := schedule.Schedule{Start: []model.Time{0, 2, 4}}

	if _, ok := conflictByName(p, map[string]model.Time{}, s); ok {
		t.Fatal("nominal delays reported a conflict")
	}
	// a overruns to 3: same-resource conflict with b at its start 2.
	if at, ok := conflictByName(p, map[string]model.Time{"a": 3}, s); !ok || at != 2 {
		t.Errorf("overrun a=3: conflict = %d, %v, want 2, true", at, ok)
	}
	// a overruns to 5: b conflicts at 2 (earlier than c's dependency
	// conflict at 4).
	if at, ok := conflictByName(p, map[string]model.Time{"a": 5}, s); !ok || at != 2 {
		t.Errorf("overrun a=5: conflict = %d, %v, want 2, true", at, ok)
	}
	// b overruns past c's start: only the dependency a->c is a
	// finish-to-start edge, and b/c share no resource, so b's overrun
	// alone conflicts with nothing.
	if _, ok := conflictByName(p, map[string]model.Time{"b": 5}, s); ok {
		t.Error("overrun b=5 reported a conflict; b and c are unrelated")
	}
	// c overruns: nothing depends on c.
	if _, ok := conflictByName(p, map[string]model.Time{"c": 9}, s); ok {
		t.Error("overrun c=9 reported a conflict")
	}
}

func TestResidualProblem(t *testing.T) {
	p := &model.Problem{
		Name:      "resid",
		BasePower: 1,
		Tasks: []model.Task{
			{Name: "a", Resource: "cpu", Delay: 2, Power: 5},
			{Name: "b", Resource: "cpu", Delay: 2, Power: 5},
			{Name: "c", Resource: "arm", Delay: 2, Power: 5},
		},
		Constraints: []model.Constraint{
			{From: "a", To: "b", Min: 2},
			{From: "a", To: "c", Min: 1, Max: 8, HasMax: true},
			{From: model.Anchor, To: "c", Min: 0, Max: 10, HasMax: true},
			{From: "b", To: "c", Min: 2},
		},
	}
	s := schedule.Schedule{Start: []model.Time{0, 2, 5}}
	q, drops := residualByName(p, s, []string{"b", "c"}, 4, nil)
	if drops != 0 {
		t.Fatalf("drops = %d, want 0", drops)
	}
	if len(q.Tasks) != 2 || q.Tasks[0].Name != "b" || q.Tasks[1].Name != "c" {
		t.Fatalf("residual tasks = %v", q.Tasks)
	}
	want := []model.Constraint{
		// a->c [1,8] with a fixed at 0, elapsed 4: release dead, max
		// becomes an anchor deadline at 8-4.
		{From: model.Anchor, To: "c", Min: 0, Max: 4, HasMax: true},
		// anchor deadline 10 shifts to 6.
		{From: model.Anchor, To: "c", Min: 0, Max: 6, HasMax: true},
		// pending-to-pending edge kept verbatim.
		{From: "b", To: "c", Min: 2},
	}
	if len(q.Constraints) != len(want) {
		t.Fatalf("residual constraints = %v, want %v", q.Constraints, want)
	}
	for i, c := range want {
		if q.Constraints[i] != c {
			t.Errorf("constraint %d = %v, want %v", i, q.Constraints[i], c)
		}
	}
	if err := q.Validate(); err != nil {
		t.Errorf("residual problem invalid: %v", err)
	}

	// A deadline already in the past is dropped and counted.
	p2 := p.Clone()
	p2.Constraints = append(p2.Constraints, model.Constraint{From: model.Anchor, To: "b", Min: 0, Max: 3, HasMax: true})
	_, drops = residualByName(p2, s, []string{"b", "c"}, 4, nil)
	if drops != 1 {
		t.Errorf("drops = %d, want 1 (deadline 3 at elapsed 4)", drops)
	}
}

func TestResidualProblemPromotesRevealedDelays(t *testing.T) {
	p := &model.Problem{
		Name: "promote",
		Tasks: []model.Task{
			{Name: "a", Resource: "cpu", Delay: 2, Power: 5},
			{Name: "b", Resource: "arm", Delay: 2, Power: 5},
		},
		Constraints: []model.Constraint{
			{From: "a", To: "b", Min: 2},                       // finish-to-start: stretches
			{From: "a", To: "b", Min: 1, Max: 9, HasMax: true}, // start-to-start window: kept as-is
		},
	}
	s := schedule.Schedule{Start: []model.Time{0, 2}}
	q, _ := residualByName(p, s, []string{"a", "b"}, 1, map[string]model.Time{"a": 5})
	if q.Tasks[0].Delay != 5 {
		t.Errorf("promoted delay = %d, want 5", q.Tasks[0].Delay)
	}
	if q.Tasks[1].Delay != 2 {
		t.Errorf("unrevealed delay = %d, want 2", q.Tasks[1].Delay)
	}
	if q.Constraints[0].Min != 5 {
		t.Errorf("finish-to-start Min = %d, want 5 (stretched by the overrun)", q.Constraints[0].Min)
	}
	if q.Constraints[1].Min != 1 || q.Constraints[1].Max != 9 {
		t.Errorf("start-to-start window changed: %v", q.Constraints[1])
	}
}

func TestParseFaults(t *testing.T) {
	if m, err := ParseFaults(""); err != nil || m != DefaultFaults() {
		t.Errorf("ParseFaults(\"\") = %+v, %v, want defaults", m, err)
	}
	if m, err := ParseFaults("none"); err != nil || m != (FaultModel{}) {
		t.Errorf("ParseFaults(none) = %+v, %v, want zero model", m, err)
	}
	if m, err := ParseFaults("retries=100"); err != nil || m.MaxRetries != MaxFaultRetries {
		t.Errorf("ParseFaults(retries=100) = %+v, %v, want the bound accepted", m, err)
	}
	m, err := ParseFaults("overrun=0.5,retries=3,dropoutdur=90, degrade=0")
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if m.OverrunProb != 0.5 || m.MaxRetries != 3 || m.DropoutDur != 90 || m.DegradeFrac != 0 {
		t.Errorf("overrides not applied: %+v", m)
	}
	if m.BrownoutProb != DefaultFaults().BrownoutProb {
		t.Errorf("untouched keys should keep defaults: %+v", m)
	}
	for _, bad := range []string{"bogus=1", "overrun=2", "overrun=x", "dropoutdur=0", "retries=-1", "retries=101", "fail=1,retries=4000000000000000000", "degrade=1", "noequals",
		"overrun=NaN", "overrunfrac=+Inf", "overrunfrac=NaN", "degrade=NaN", "brownoutfrac=NaN"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

func TestParseFaultsErrorsMentionKey(t *testing.T) {
	for spec, key := range map[string]string{"brownoutdur=-5": "brownoutdur", "retries=101": "retries"} {
		_, err := ParseFaults(spec)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("ParseFaults(%q): error %v should name the offending key", spec, err)
		}
	}
}

func TestBaseSolarAt(t *testing.T) {
	phases := mission.PaperScenario()
	for _, tc := range []struct {
		t    model.Time
		want float64
	}{{0, 14.9}, {599, 14.9}, {600, 12}, {1199, 12}, {1200, 9}, {5000, 9}} {
		if got := baseSolarAt(phases, tc.t); got != tc.want {
			t.Errorf("baseSolarAt(%d) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestBuildEnvironmentOverlay(t *testing.T) {
	env := buildEnvironment(
		[]mission.Phase{{Duration: 10, Cond: mission.Condition{Solar: 8}}, {Cond: mission.Condition{Solar: 4}}},
		[]window{{start: 5, end: 12, factor: 0.5}},
	)
	for _, tc := range []struct {
		t    model.Time
		want float64
	}{{0, 8}, {4, 8}, {5, 4}, {9, 4}, {10, 2}, {11, 2}, {12, 4}, {20, 4}} {
		if got := env.solar.At(tc.t); got != tc.want {
			t.Errorf("solar.At(%d) = %g, want %g", tc.t, got, tc.want)
		}
	}
	if got := nextChange(env.breaks, 0); got != 5 {
		t.Errorf("nextChange(0) = %d, want 5", got)
	}
	if got := nextChange(env.breaks, 12); got != -1 {
		t.Errorf("nextChange(12) = %d, want -1", got)
	}
}
