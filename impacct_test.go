package impacct_test

import (
	"errors"
	"strings"
	"testing"

	"repro"
	"repro/internal/schedule"
)

func sensorProblem() *impacct.Problem {
	p := &impacct.Problem{
		Name:      "sensor-node",
		Pmax:      10,
		Pmin:      6,
		BasePower: 1,
	}
	p.AddTask(impacct.Task{Name: "sample", Resource: "sensor", Delay: 4, Power: 3})
	p.AddTask(impacct.Task{Name: "filter", Resource: "cpu", Delay: 6, Power: 2})
	p.AddTask(impacct.Task{Name: "tx", Resource: "radio", Delay: 3, Power: 7})
	p.Window("sample", "tx", 2, 20)
	return p
}

func TestFacadeRunPipeline(t *testing.T) {
	p := sensorProblem()
	r, err := impacct.Run(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Peak() > p.Pmax {
		t.Errorf("peak %.1f exceeds Pmax", r.Peak())
	}
	if r.Finish() <= 0 {
		t.Error("empty schedule")
	}
	if u := r.Utilization(); u < 0 || u > 1 {
		t.Errorf("utilization out of range: %g", u)
	}
}

func TestFacadeStages(t *testing.T) {
	p := sensorProblem()
	rt, err := impacct.Timing(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := impacct.MaxPower(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := impacct.MinPower(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Peak() > p.Pmax || rf.Peak() > p.Pmax {
		t.Error("power stages left spikes")
	}
	if rt.Finish() > rm.Finish() || rm.Finish() > rf.Finish()+1000 {
		t.Error("stage finish times implausible")
	}
}

func TestFacadeInfeasible(t *testing.T) {
	p := sensorProblem()
	p.MinSep("sample", "tx", 30) // contradicts the [2,20] window
	_, err := impacct.Run(p, impacct.Options{})
	if !errors.Is(err, impacct.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestFacadeSpecRoundTrip(t *testing.T) {
	p := sensorProblem()
	text := impacct.FormatSpec(p)
	q, err := impacct.ParseSpecString(text)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || len(q.Tasks) != len(p.Tasks) {
		t.Fatal("spec round-trip lost data")
	}
}

func TestFacadeSpecReader(t *testing.T) {
	p, err := impacct.ParseSpec(strings.NewReader("task a R 2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks) != 1 {
		t.Fatal("reader parse failed")
	}
}

func TestFacadeChart(t *testing.T) {
	p := sensorProblem()
	r, err := impacct.Run(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := impacct.NewChart(p, r.Schedule)
	if !strings.Contains(c.ASCII(1), "sensor-node") {
		t.Error("ASCII chart missing title")
	}
	if !strings.Contains(c.SVG(), "<svg") {
		t.Error("SVG chart malformed")
	}
}

func TestFacadeLibrary(t *testing.T) {
	p := sensorProblem()
	r, err := impacct.Run(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sel impacct.Selector
	sel.Add(impacct.NewLibraryEntry("sensor", p, r.Schedule))
	if _, ok := sel.Select(p.Pmax, p.Pmin); !ok {
		t.Fatal("library rejected its own schedule at the problem's budget")
	}
}

func TestFacadeSweepAndPareto(t *testing.T) {
	p := sensorProblem()
	pts := impacct.SweepPmax(p, []float64{8, 10, 14}, impacct.Options{})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	front := impacct.Pareto(pts)
	if len(front) == 0 {
		t.Fatal("empty pareto front from feasible sweep")
	}
}

func TestFacadeGenerate(t *testing.T) {
	p := impacct.GenerateProblem(impacct.GenConfig{Tasks: 10, Seed: 1})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := impacct.Run(p, impacct.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestSatPassEndToEnd schedules the second shipped case study — a LEO
// ground-station pass with a hard contact window — and checks the
// domain facts: the downlink happens inside the window, the power
// amplifier is warm, and the whole pass runs on free solar power.
func TestSatPassEndToEnd(t *testing.T) {
	p, err := impacct.ParseSpecFile("testdata/satpass.spec")
	if err != nil {
		t.Fatal(err)
	}
	r, err := impacct.Run(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := impacct.Verify(p, r.Schedule); !rep.OK() {
		t.Fatal(rep.Err())
	}
	idx := p.TaskIndex()
	dl := r.Schedule.Start[idx["downlink"]]
	if dl < 120 || dl > 210 {
		t.Errorf("downlink starts at %d, want inside [120,210]", dl)
	}
	if sep := dl - r.Schedule.Start[idx["pa-heat"]]; sep < 20 || sep > 120 {
		t.Errorf("PA heated %d s before TX, want 20..120", sep)
	}
	if cost := r.EnergyCost(); cost != 0 {
		t.Errorf("pass drew %.1f J from the battery; solar should cover it", cost)
	}
	if r.Peak() > p.Pmax {
		t.Errorf("peak %.1f over budget", r.Peak())
	}
}

// TestSpecFileEndToEnd drives the shipped example spec through the
// whole stack: parse, schedule, validate, render.
func TestSpecFileEndToEnd(t *testing.T) {
	p, err := impacct.ParseSpecFile("testdata/example9.spec")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "nine-task-example" || len(p.Tasks) != 9 {
		t.Fatalf("unexpected spec contents: %s, %d tasks", p.Name, len(p.Tasks))
	}
	r, err := impacct.Run(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.CheckTimeValid(r.Compiled.Base, r.Compiled, r.Schedule); err != nil {
		t.Fatal(err)
	}
	if r.Peak() > p.Pmax {
		t.Errorf("peak %.1f over budget", r.Peak())
	}
	out := impacct.NewChart(p, r.Schedule).ASCII(1)
	for _, res := range []string{"A", "B", "C"} {
		if !strings.Contains(out, res) {
			t.Errorf("chart missing resource %s", res)
		}
	}
}
