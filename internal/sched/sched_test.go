package sched

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/schedule"
)

func mustTiming(t *testing.T, p *model.Problem) *Result {
	t.Helper()
	r, err := Timing(p, Options{})
	if err != nil {
		t.Fatalf("Timing(%s): %v", p.Name, err)
	}
	checkTimeValid(t, r)
	return r
}

func mustMaxPower(t *testing.T, p *model.Problem) *Result {
	t.Helper()
	r, err := MaxPower(p, Options{})
	if err != nil {
		t.Fatalf("MaxPower(%s): %v", p.Name, err)
	}
	checkTimeValid(t, r)
	if !r.Profile.Valid(p.Pmax) {
		t.Fatalf("MaxPower(%s): spikes remain: %v (profile %v)", p.Name, r.Profile.Spikes(p.Pmax), r.Profile)
	}
	return r
}

func mustMinPower(t *testing.T, p *model.Problem) *Result {
	t.Helper()
	r, err := MinPower(p, Options{})
	if err != nil {
		t.Fatalf("MinPower(%s): %v", p.Name, err)
	}
	checkTimeValid(t, r)
	if p.Pmax > 0 && !r.Profile.Valid(p.Pmax) {
		t.Fatalf("MinPower(%s): spikes remain: %v", p.Name, r.Profile.Spikes(p.Pmax))
	}
	return r
}

func checkTimeValid(t *testing.T, r *Result) {
	t.Helper()
	if err := schedule.CheckTimeValid(r.Compiled.Base, r.Compiled, r.Schedule); err != nil {
		t.Fatalf("schedule not time-valid: %v", err)
	}
}

func TestTimingSerializesSharedResource(t *testing.T) {
	p := &model.Problem{
		Name: "two-on-one",
		Tasks: []model.Task{
			{Name: "a", Resource: "R", Delay: 3, Power: 1},
			{Name: "b", Resource: "R", Delay: 2, Power: 1},
		},
	}
	r := mustTiming(t, p)
	sa, sb := r.Schedule.Start[0], r.Schedule.Start[1]
	if sa == sb {
		t.Fatalf("same-resource tasks start together: a=%d b=%d", sa, sb)
	}
	if err := schedule.CheckSerialized(p.Tasks, r.Schedule); err != nil {
		t.Fatal(err)
	}
	if got := r.Finish(); got != 5 {
		t.Fatalf("finish = %d, want 5 (back-to-back)", got)
	}
}

func TestTimingHonorsPrecedenceChain(t *testing.T) {
	p := &model.Problem{
		Name: "chain",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 2, Power: 1},
			{Name: "b", Resource: "B", Delay: 3, Power: 1},
			{Name: "c", Resource: "C", Delay: 1, Power: 1},
		},
	}
	if err := p.Precede("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := p.Precede("b", "c"); err != nil {
		t.Fatal(err)
	}
	r := mustTiming(t, p)
	want := []model.Time{0, 2, 5}
	for i, w := range want {
		if r.Schedule.Start[i] != w {
			t.Errorf("start[%s] = %d, want %d", p.Tasks[i].Name, r.Schedule.Start[i], w)
		}
	}
}

func TestTimingInfeasibleWindow(t *testing.T) {
	p := &model.Problem{
		Name: "infeasible",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 5, Power: 1},
			{Name: "b", Resource: "B", Delay: 5, Power: 1},
		},
	}
	p.MinSep("a", "b", 10)
	p.Window("a", "b", 0, 5) // contradicts the min separation of 10
	_, err := Timing(p, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestTimingBacktracksOverSerializationOrders(t *testing.T) {
	// b must run in [0,2] (deadline via window from anchor); a shares
	// b's resource and is longer. Visiting a first serializes b after a
	// (start >= 4), violating b's deadline: the search must backtrack
	// and order b before a.
	p := &model.Problem{
		Name: "backtrack",
		Tasks: []model.Task{
			{Name: "a", Resource: "R", Delay: 4, Power: 1},
			{Name: "b", Resource: "R", Delay: 2, Power: 1},
		},
	}
	p.Deadline("b", 0) // b starts at exactly time 0
	r := mustTiming(t, p)
	if r.Schedule.Start[1] != 0 {
		t.Fatalf("b starts at %d, want 0", r.Schedule.Start[1])
	}
	if r.Schedule.Start[0] < 2 {
		t.Fatalf("a starts at %d, want >= 2 (after b)", r.Schedule.Start[0])
	}
}

func TestMaxPowerSerializesForBudget(t *testing.T) {
	// Two independent 5 W tasks on different resources; Pmax 8 W forces
	// them apart even though timing alone would run them in parallel.
	p := &model.Problem{
		Name: "budget",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 4, Power: 5},
			{Name: "b", Resource: "B", Delay: 4, Power: 5},
		},
		Pmax: 8,
	}
	rt := mustTiming(t, p)
	if rt.Profile.Peak() <= 8 {
		t.Fatalf("test premise broken: timing-only peak %.3g <= Pmax", rt.Profile.Peak())
	}
	r := mustMaxPower(t, p)
	if got := r.Profile.Peak(); got > 8 {
		t.Fatalf("peak = %g, want <= 8", got)
	}
	if got := r.Finish(); got != 8 {
		t.Fatalf("finish = %d, want 8 (serialized)", got)
	}
}

func TestMaxPowerRespectsWindows(t *testing.T) {
	// c must start within [2,6] after a; a and c each 6 W with Pmax
	// 10 W, so they cannot overlap; a is 3 long. The only valid layout
	// delays c to start in [3,6].
	p := &model.Problem{
		Name: "window-budget",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 3, Power: 6},
			{Name: "c", Resource: "C", Delay: 3, Power: 6},
		},
		Pmax: 10,
	}
	p.Window("a", "c", 2, 6)
	r := mustMaxPower(t, p)
	sc := r.Schedule.Start[1]
	if sc < 3 || sc > 6 {
		t.Fatalf("c starts at %d, want within [3,6]", sc)
	}
}

func TestMinPowerFillsGap(t *testing.T) {
	// a runs [0,4); b is free to run any time (big window) and at ASAP
	// runs in parallel, leaving [4,8) empty. With Pmin = 5 the min-power
	// scheduler should delay b into the empty region, raising
	// utilization of the free power.
	p := &model.Problem{
		Name: "gapfill",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 4, Power: 5},
			{Name: "b", Resource: "B", Delay: 4, Power: 5},
			{Name: "z", Resource: "Z", Delay: 8, Power: 0.5},
		},
		Pmax: 12,
		Pmin: 5,
	}
	r := mustMinPower(t, p)
	if got := r.Finish(); got != 8 {
		t.Fatalf("finish = %d, want 8", got)
	}
	util := r.Utilization()
	// Parallel a+b: profile 10.5 for [0,4), 0.5 for [4,8): util = (5*4+0.5*4)/40 = 0.55.
	// Spread: 5.5 everywhere: util = 1.
	if util < 0.999 {
		t.Fatalf("utilization = %.3f, want 1.0 (b delayed into the gap); profile %v", util, r.Profile)
	}
}

func TestMinPowerKeepsFinishTime(t *testing.T) {
	p := &model.Problem{
		Name: "keep-tau",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 4, Power: 6},
			{Name: "b", Resource: "B", Delay: 2, Power: 6},
		},
		Pmax: 20,
		Pmin: 8,
	}
	rm := mustMaxPower(t, p)
	tau := rm.Finish()
	r := mustMinPower(t, p)
	if got := r.Finish(); got > tau {
		t.Fatalf("min-power extended finish from %d to %d", tau, got)
	}
}

func TestPipelineMonotoneUtilization(t *testing.T) {
	p := gapProblem()
	rmax := mustMaxPower(t, p)
	rmin := mustMinPower(t, p)
	if rmin.Utilization()+utilEps < rmax.Utilization() {
		t.Fatalf("min-power decreased utilization: %.4f -> %.4f",
			rmax.Utilization(), rmin.Utilization())
	}
	if rmin.EnergyCost() > rmax.EnergyCost()+1e-9 {
		t.Fatalf("min-power increased energy cost: %.4f -> %.4f",
			rmax.EnergyCost(), rmin.EnergyCost())
	}
}

// gapProblem is a small instance with deliberate idle power regions.
func gapProblem() *model.Problem {
	p := &model.Problem{
		Name: "gappy",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 3, Power: 6},
			{Name: "b", Resource: "B", Delay: 3, Power: 6},
			{Name: "c", Resource: "C", Delay: 3, Power: 6},
			{Name: "long", Resource: "L", Delay: 12, Power: 2},
		},
		Pmax:      14,
		Pmin:      8,
		BasePower: 1,
	}
	return p
}

func TestZeroPmaxSkipsSpikeElimination(t *testing.T) {
	p := &model.Problem{
		Name: "nopmax",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 2, Power: 50},
			{Name: "b", Resource: "B", Delay: 2, Power: 50},
		},
	}
	r, err := MaxPower(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile.Peak() != 100 {
		t.Fatalf("peak = %g, want 100 (both parallel, no budget)", r.Profile.Peak())
	}
}

func TestResultMetricsAgreeWithProfile(t *testing.T) {
	p := gapProblem()
	r := mustMinPower(t, p)
	prof := power.Build(p.Tasks, r.Schedule, p.BasePower)
	if r.Profile.String() != prof.String() {
		t.Fatalf("result profile mismatch:\n got %v\nwant %v", r.Profile, prof)
	}
	if r.EnergyCost() != prof.EnergyCost(p.Pmin) {
		t.Fatal("EnergyCost accessor disagrees with profile")
	}
}
