package sched

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxBacktracks == 0 || o.MaxSpikeRounds == 0 || o.MaxScans == 0 {
		t.Fatalf("limits not defaulted: %+v", o)
	}
	if len(o.ScanOrders) != 3 || len(o.SlotChoices) != 2 {
		t.Fatalf("heuristics not defaulted: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{MaxScans: 3, ScanOrders: []ScanOrder{ScanReverse}}.withDefaults()
	if o2.MaxScans != 3 || len(o2.ScanOrders) != 1 || o2.ScanOrders[0] != ScanReverse {
		t.Fatalf("explicit options overridden: %+v", o2)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		ScanForward.String():        "forward",
		ScanReverse.String():        "reverse",
		ScanRandom.String():         "random",
		SlotStartAtGap.String():     "start-at-gap",
		SlotFinishAtGapEnd.String(): "finish-at-gap-end",
		SlotRandom.String():         "random-slot",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !strings.Contains(ScanOrder(99).String(), "99") {
		t.Error("unknown ScanOrder not reported numerically")
	}
	if !strings.Contains(SlotChoice(99).String(), "99") {
		t.Error("unknown SlotChoice not reported numerically")
	}
}

func TestInvalidProblemRejectedAtEveryEntryPoint(t *testing.T) {
	bad := &model.Problem{
		Name:  "bad",
		Tasks: []model.Task{{Name: "a", Resource: "R", Delay: 0, Power: 1}},
	}
	if _, err := Timing(bad, Options{}); err == nil {
		t.Error("Timing accepted invalid problem")
	}
	if _, err := MaxPower(bad, Options{}); err == nil {
		t.Error("MaxPower accepted invalid problem")
	}
	if _, err := MinPower(bad, Options{}); err == nil {
		t.Error("MinPower accepted invalid problem")
	}
}

func TestInfeasiblePropagatesThroughPipeline(t *testing.T) {
	p := &model.Problem{
		Name: "inf",
		Tasks: []model.Task{
			{Name: "a", Resource: "A", Delay: 5, Power: 1},
			{Name: "b", Resource: "B", Delay: 5, Power: 1},
		},
		Pmax: 10,
		Pmin: 1,
	}
	p.MinSep("a", "b", 10)
	p.Window("a", "b", 0, 5)
	if _, err := MinPower(p, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// backtrackProblem has many same-resource tasks with deadlines in
// reverse index order, forcing the timing search to backtrack heavily.
func backtrackProblem() *model.Problem { return backtrackProblemN(7) }

// backtrackProblemN is backtrackProblem with n tasks. Restart 0 needs
// n(n-1)/2 backtracks; perturbed restarts need fewer.
func backtrackProblemN(n int) *model.Problem {
	p := &model.Problem{Name: "bt"}
	for i := 0; i < n; i++ {
		p.AddTask(model.Task{
			Name:     string(rune('a' + i)),
			Resource: "R",
			Delay:    2,
			Power:    1,
		})
	}
	// Deadlines force the reverse of the candidate order (all tasks tie
	// at ASAP 0, so the search tries index order first and must
	// backtrack its way to the reverse order).
	for i := 0; i < n; i++ {
		p.Deadline(p.Tasks[i].Name, model.Time(2*(n-1-i)))
	}
	return p
}

func TestBacktrackBudgetError(t *testing.T) {
	// A budget of 1 must fail with the budget error, not infeasibility.
	p := backtrackProblem()
	if _, err := Timing(p, Options{}); err != nil {
		t.Fatalf("default budget should solve it: %v", err)
	}
	_, err := Timing(p, Options{MaxBacktracks: 1})
	if err == nil {
		t.Fatal("budget of 1 succeeded")
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatalf("budget exhaustion reported as infeasibility: %v", err)
	}
}

func TestStatspopulated(t *testing.T) {
	p := gapProblem()
	r, err := MinPower(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Scans == 0 {
		t.Error("no min-power scans recorded")
	}
	if r.Stats.SpikeRounds == 0 {
		t.Error("no spike rounds recorded (gapProblem spikes at ASAP)")
	}
}

func TestDisableLocksStillValid(t *testing.T) {
	p := gapProblem()
	r, err := MinPower(p, Options{DisableLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Profile.Valid(p.Pmax) {
		t.Fatal("lock-free run produced spikes")
	}
}

func TestSingleHeuristicCombos(t *testing.T) {
	p := gapProblem()
	for _, order := range []ScanOrder{ScanForward, ScanReverse, ScanRandom} {
		for _, slot := range []SlotChoice{SlotStartAtGap, SlotFinishAtGapEnd, SlotRandom} {
			r, err := MinPower(p, Options{
				ScanOrders:  []ScanOrder{order},
				SlotChoices: []SlotChoice{slot},
				Seed:        7,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", order, slot, err)
			}
			if !r.Profile.Valid(p.Pmax) {
				t.Errorf("%s/%s: spikes", order, slot)
			}
		}
	}
}

func TestMinPowerSkipsWhenPminZero(t *testing.T) {
	p := gapProblem()
	p.Pmin = 0
	rm, err := MaxPower(p.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := MinPower(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Schedule.Equal(rm.Schedule) {
		t.Fatal("Pmin=0 run still moved tasks")
	}
	if rf.Stats.Moves != 0 {
		t.Fatalf("Pmin=0 recorded %d moves", rf.Stats.Moves)
	}
}

func TestRunAliasesMinPower(t *testing.T) {
	p := gapProblem()
	a, err := Run(p.Clone(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinPower(p.Clone(), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Schedule.Equal(b.Schedule) {
		t.Fatal("Run and MinPower disagree")
	}
}

func TestResultAccessors(t *testing.T) {
	p := gapProblem()
	r, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Finish() != r.Schedule.Finish(p.Tasks) {
		t.Error("Finish accessor wrong")
	}
	if r.Peak() != r.Profile.Peak() {
		t.Error("Peak accessor wrong")
	}
}
