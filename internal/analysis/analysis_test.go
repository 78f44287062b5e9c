package analysis

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/paperex"
	"repro/internal/sched"
	"repro/internal/schedule"
)

func TestSweepPmaxShape(t *testing.T) {
	p := paperex.Nine()
	budgets := []float64{10, 12, 16, 24}
	pts := SweepPmax(p, budgets, sched.Options{})
	if len(pts) != len(budgets) {
		t.Fatalf("points = %d, want %d", len(pts), len(budgets))
	}
	for i, pt := range pts {
		if pt.Pmax != budgets[i] {
			t.Errorf("point %d pmax = %g, want %g", i, pt.Pmax, budgets[i])
		}
		if !pt.Feasible() {
			t.Errorf("budget %g infeasible: %v", pt.Pmax, pt.Err)
		}
		if pt.Pmin > pt.Pmax {
			t.Errorf("point %d has pmin %g > pmax %g", i, pt.Pmin, pt.Pmax)
		}
	}
	// Finish time must not improve as the budget tightens.
	for i := 1; i < len(pts); i++ {
		if pts[i].Finish > pts[i-1].Finish {
			continue // looser budget, shorter or equal schedule: fine
		}
	}
	if pts[0].Finish < pts[len(pts)-1].Finish {
		t.Errorf("tightest budget (%g) finished faster than loosest (%g): %d < %d",
			budgets[0], budgets[3], pts[0].Finish, pts[3].Finish)
	}
}

func TestSweepPmaxMarksInfeasible(t *testing.T) {
	p := paperex.Nine()
	pts := SweepPmax(p, []float64{1}, sched.Options{})
	if pts[0].Feasible() {
		t.Fatal("1 W budget reported feasible")
	}
}

func TestSweepGridSkipsInvertedPairs(t *testing.T) {
	p := paperex.Nine()
	pts := SweepGrid(p, []float64{16, 20}, []float64{10, 18}, sched.Options{})
	// (16,18) is skipped: 3 combinations remain.
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for _, pt := range pts {
		if pt.Pmin > pt.Pmax {
			t.Errorf("grid produced pmin %g > pmax %g", pt.Pmin, pt.Pmax)
		}
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Finish: 10, EnergyCost: 22},
		{Finish: 12, EnergyCost: 10},
		{Finish: 12, EnergyCost: 15}, // dominated (same tau, worse cost)
		{Finish: 14, EnergyCost: 12}, // dominated by (12,10)
		{Finish: 16, EnergyCost: 0},
		{Finish: 20, EnergyCost: 5, Err: errTest}, // infeasible: excluded
	}
	front := Pareto(pts)
	if len(front) != 3 {
		t.Fatalf("front = %+v, want 3 points", front)
	}
	wantTau := []int{10, 12, 16}
	for i, w := range wantTau {
		if front[i].Finish != w {
			t.Errorf("front[%d].Finish = %d, want %d", i, front[i].Finish, w)
		}
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test" }

// TestQuickParetoIsNonDominated: no front point dominates another and
// every input point is dominated-by-or-equal-to some front point.
func TestQuickParetoIsNonDominated(t *testing.T) {
	f := func(raw []uint16) bool {
		var pts []Point
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point{
				Finish:     int(raw[i]%100) + 1,
				EnergyCost: float64(raw[i+1] % 500),
			})
		}
		front := Pareto(pts)
		dominates := func(a, b Point) bool {
			return a.Finish <= b.Finish && a.EnergyCost <= b.EnergyCost &&
				(a.Finish < b.Finish || a.EnergyCost < b.EnergyCost)
		}
		for i, a := range front {
			for j, b := range front {
				if i != j && dominates(a, b) {
					return false
				}
			}
		}
		for _, p := range pts {
			covered := false
			for _, fpt := range front {
				if !dominates(p, fpt) {
					covered = true
					break
				}
			}
			if !covered && len(front) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFormatPoints(t *testing.T) {
	out := FormatPoints([]Point{
		{Pmax: 16, Pmin: 14, Finish: 12, EnergyCost: 10, Utilization: 0.9},
		{Pmax: 1, Pmin: 1, Err: errTest},
	})
	if !strings.Contains(out, "16") || !strings.Contains(out, "90.0%") {
		t.Errorf("missing feasible row: %s", out)
	}
	if !strings.Contains(out, "test") {
		t.Errorf("missing infeasible annotation: %s", out)
	}
}

func TestGenerateIsValidAndSchedulable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := Generate(GenConfig{Tasks: 15, Seed: seed})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := sched.Run(p, sched.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := schedule.CheckTimeValid(r.Compiled.Base, r.Compiled, r.Schedule); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.Profile.Valid(p.Pmax) {
			t.Fatalf("seed %d: schedule exceeds generated budget", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenConfig{Tasks: 12, Seed: 3})
	b := Generate(GenConfig{Tasks: 12, Seed: 3})
	if len(a.Tasks) != len(b.Tasks) || len(a.Constraints) != len(b.Constraints) {
		t.Fatal("same seed produced different problems")
	}
	for i := range a.Tasks {
		if !reflect.DeepEqual(a.Tasks[i], b.Tasks[i]) {
			t.Fatalf("task %d differs: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
	c := Generate(GenConfig{Tasks: 12, Seed: 4})
	same := len(a.Constraints) == len(c.Constraints)
	if same {
		for i := range a.Tasks {
			if !reflect.DeepEqual(a.Tasks[i], c.Tasks[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical problems")
	}
}

func TestCompareHeuristics(t *testing.T) {
	rows := CompareHeuristics(paperex.Nine(), map[string]sched.Options{
		"default":  {},
		"forward":  {ScanOrders: []sched.ScanOrder{sched.ScanForward}},
		"no-locks": {DisableLocks: true},
	})
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Sorted by label.
	if rows[0].Label != "default" || rows[1].Label != "forward" || rows[2].Label != "no-locks" {
		t.Fatalf("label order: %v, %v, %v", rows[0].Label, rows[1].Label, rows[2].Label)
	}
	for _, row := range rows {
		if row.Err != nil {
			t.Errorf("%s failed: %v", row.Label, row.Err)
		}
		if row.Finish == 0 {
			t.Errorf("%s has zero finish", row.Label)
		}
	}
}

func TestFormatHeuristicRows(t *testing.T) {
	rows := []HeuristicRow{
		{Label: "ok", Finish: 12, EnergyCost: 10, Utilization: 0.9},
		{Label: "bad", Err: errTest},
	}
	out := FormatHeuristicRows(rows)
	if !strings.Contains(out, "ok") || !strings.Contains(out, "90.0%") {
		t.Errorf("missing row: %s", out)
	}
	if !strings.Contains(out, "failed: test") {
		t.Errorf("missing failure row: %s", out)
	}
}
