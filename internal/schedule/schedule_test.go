package schedule

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func twoTaskProblem() *model.Problem {
	return &model.Problem{
		Name: "two",
		Tasks: []model.Task{
			{Name: "a", Resource: "R", Delay: 3, Power: 2},
			{Name: "b", Resource: "S", Delay: 2, Power: 1},
		},
	}
}

func TestCompileEdges(t *testing.T) {
	p := twoTaskProblem()
	p.MinSep("a", "b", 5)
	p.Window("b", "a", -9, -4) // a starts 4..9 before b
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Anchor != 2 {
		t.Fatalf("anchor = %d, want 2", c.Anchor)
	}
	// anchor->a, anchor->b, a->b(5), b->a(-9), a->b(4).
	if got := c.Base.NumEdges(); got != 5 {
		t.Fatalf("edges = %d, want 5", got)
	}
	dist, ok := c.Base.LongestFrom(c.Anchor)
	if !ok {
		t.Fatal("compiled graph infeasible")
	}
	if dist[c.Index["b"]] != 5 {
		t.Fatalf("ASAP b = %d, want 5", dist[c.Index["b"]])
	}
}

func TestCompileAnchorConstraints(t *testing.T) {
	p := twoTaskProblem()
	p.Release("a", 4)
	p.Deadline("a", 6)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	dist, ok := c.Base.LongestFrom(c.Anchor)
	if !ok || dist[0] != 4 {
		t.Fatalf("ASAP a = %d (ok=%v), want 4", dist[0], ok)
	}
}

func TestCompileRejectsInvalidProblem(t *testing.T) {
	p := twoTaskProblem()
	p.Tasks[0].Delay = 0
	if _, err := Compile(p); err == nil {
		t.Fatal("Compile accepted an invalid problem")
	}
}

func TestFinish(t *testing.T) {
	p := twoTaskProblem()
	s := Schedule{Start: []model.Time{0, 5}}
	if got := s.Finish(p.Tasks); got != 7 {
		t.Fatalf("Finish = %d, want 7", got)
	}
}

func TestSlackFormula(t *testing.T) {
	p := twoTaskProblem()
	p.MinSep("a", "b", 5)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s := Schedule{Start: []model.Time{0, 8}}
	// a's only outgoing edge is a->b (5): slack = 8 - 0 - 5 = 3.
	if got := Slack(c.Base, c, s, 0); got != 3 {
		t.Fatalf("Slack(a) = %d, want 3", got)
	}
	// b has no outgoing edges.
	if got := Slack(c.Base, c, s, 1); got != InfiniteSlack {
		t.Fatalf("Slack(b) = %d, want InfiniteSlack", got)
	}
}

func TestSlackAgainstDeadline(t *testing.T) {
	p := twoTaskProblem()
	p.Deadline("a", 9)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s := Schedule{Start: []model.Time{4, 0}}
	// Deadline edge a->anchor weight -9: slack = 0 - 4 + 9 = 5.
	if got := Slack(c.Base, c, s, 0); got != 5 {
		t.Fatalf("Slack(a) = %d, want 5", got)
	}
	if got := Slack(c.Base, c, s, 1); got != InfiniteSlack {
		t.Fatalf("Slack(b) = %d, want InfiniteSlack", got)
	}
}

func TestSlackDelayStaysValid(t *testing.T) {
	// Delaying a task by exactly its slack must keep the schedule
	// time-valid; by slack+1 must break it.
	p := twoTaskProblem()
	p.MinSep("a", "b", 5)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	s := Schedule{Start: []model.Time{0, 8}}
	sl := Slack(c.Base, c, s, 0)
	s2 := s.Clone()
	s2.Start[0] += sl
	if err := CheckTimeValid(c.Base, c, s2); err != nil {
		t.Fatalf("delay by slack broke validity: %v", err)
	}
	s2.Start[0]++
	if err := CheckTimeValid(c.Base, c, s2); err == nil {
		t.Fatal("delay by slack+1 stayed valid")
	}
}

func TestCheckTimeValidCatches(t *testing.T) {
	p := twoTaskProblem()
	p.MinSep("a", "b", 5)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		start []model.Time
		want  string
	}{
		{"negative start", []model.Time{-1, 5}, "negative time"},
		{"violated min sep", []model.Time{0, 4}, "violated"},
		{"wrong length", []model.Time{0}, "starts for"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckTimeValid(c.Base, c, Schedule{Start: tc.start})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if err := CheckTimeValid(c.Base, c, Schedule{Start: []model.Time{0, 5}}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestCheckSerialized(t *testing.T) {
	tasks := []model.Task{
		{Name: "x", Resource: "R", Delay: 4},
		{Name: "y", Resource: "R", Delay: 2},
	}
	if err := CheckSerialized(tasks, Schedule{Start: []model.Time{0, 3}}); err == nil {
		t.Fatal("overlap not detected")
	}
	if err := CheckSerialized(tasks, Schedule{Start: []model.Time{0, 4}}); err != nil {
		t.Fatalf("back-to-back flagged: %v", err)
	}
}

func TestScheduleEqualAndClone(t *testing.T) {
	a := Schedule{Start: []model.Time{1, 2}}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Start[0] = 9
	if a.Equal(b) || a.Start[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if a.Equal(Schedule{Start: []model.Time{1}}) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestCompileGraphIsReusable(t *testing.T) {
	p := twoTaskProblem()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating a clone must not corrupt Base for later compiles.
	g := c.Base.Clone()
	g.AddEdge(0, 1, 100)
	dist, ok := c.Base.LongestFrom(c.Anchor)
	if !ok || dist[1] != 0 {
		t.Fatalf("Base polluted: dist=%v", dist)
	}
}
