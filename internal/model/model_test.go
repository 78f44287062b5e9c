package model

import (
	"math"
	"strings"
	"testing"
)

func validProblem() *Problem {
	p := &Problem{
		Name: "ok",
		Tasks: []Task{
			{Name: "a", Resource: "R", Delay: 2, Power: 3},
			{Name: "b", Resource: "S", Delay: 4, Power: 1},
		},
		Pmax: 10,
		Pmin: 5,
	}
	return p
}

func TestValidateAccepts(t *testing.T) {
	if err := validProblem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Problem)
		want   string
	}{
		{"no tasks", func(p *Problem) { p.Tasks = nil }, "no tasks"},
		{"empty name", func(p *Problem) { p.Tasks[0].Name = "" }, "empty name"},
		{"anchor name", func(p *Problem) { p.Tasks[0].Name = Anchor }, "reserved"},
		{"duplicate", func(p *Problem) { p.Tasks[1].Name = "a" }, "duplicate"},
		{"zero delay", func(p *Problem) { p.Tasks[0].Delay = 0 }, "non-positive delay"},
		{"negative power", func(p *Problem) { p.Tasks[0].Power = -1 }, "negative power"},
		{"empty resource", func(p *Problem) { p.Tasks[0].Resource = "" }, "empty resource"},
		{"unknown from", func(p *Problem) { p.MinSep("zz", "a", 1) }, "unknown task"},
		{"unknown to", func(p *Problem) { p.MinSep("a", "zz", 1) }, "unknown task"},
		{"self loop", func(p *Problem) { p.MinSep("a", "a", 1) }, "self-loop"},
		{"max < min", func(p *Problem) { p.Window("a", "b", 5, 2) }, "max < min"},
		{"negative pmax", func(p *Problem) { p.Pmax = -1 }, "negative power constraint"},
		{"pmin > pmax", func(p *Problem) { p.Pmin = 20 }, "exceeds Pmax"},
		{"negative base", func(p *Problem) { p.BasePower = -2 }, "negative base power"},
		{"task over budget", func(p *Problem) { p.Tasks[0].Power = 11 }, "exceeds Pmax"},
		{"task+base over budget", func(p *Problem) { p.BasePower = 8 }, "exceeds Pmax"},
		{"NaN power", func(p *Problem) { p.Tasks[0].Power = math.NaN() }, "non-finite power"},
		{"+Inf power", func(p *Problem) { p.Pmax = 0; p.Tasks[0].Power = math.Inf(1) }, "non-finite power"},
		{"NaN pmax", func(p *Problem) { p.Pmax = math.NaN() }, "non-finite power constraint"},
		{"+Inf pmax and pmin", func(p *Problem) { p.Pmax, p.Pmin = math.Inf(1), math.Inf(1) }, "non-finite power constraint"},
		{"NaN pmin", func(p *Problem) { p.Pmin = math.NaN() }, "non-finite power constraint"},
		{"NaN base", func(p *Problem) { p.BasePower = math.NaN() }, "non-finite power constraint"},
		{"NaN level power", func(p *Problem) { p.Tasks[0].Levels = []DVSLevel{{Mult: 1, Power: math.NaN()}} }, "non-finite multiplier"},
		{"+Inf level mult", func(p *Problem) { p.Tasks[0].Levels = []DVSLevel{{Mult: math.Inf(1), Power: 1}} }, "non-finite multiplier"},
		{"+Inf machine speed", func(p *Problem) { p.Machines = []Machine{{Name: "m", Speed: math.Inf(1), PowerScale: 1}} }, "non-finite speed"},
		{"+Inf machine power scale", func(p *Problem) {
			p.Pmax, p.Pmin = 0, 0
			p.Machines = []Machine{{Name: "m", Speed: 1, PowerScale: math.Inf(1)}}
		}, "non-finite speed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validProblem()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAllowsNoBudget(t *testing.T) {
	p := validProblem()
	p.Pmax, p.Pmin = 0, 0
	p.Tasks[0].Power = 1000 // no budget: any power is fine
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskEnergy(t *testing.T) {
	task := Task{Delay: 4, Power: 2.5}
	if got := task.Energy(); got != 10 {
		t.Fatalf("Energy = %g, want 10", got)
	}
}

func TestBuilders(t *testing.T) {
	p := validProblem()
	if err := p.Precede("a", "b"); err != nil {
		t.Fatal(err)
	}
	c := p.Constraints[len(p.Constraints)-1]
	if c.Min != 2 || c.HasMax {
		t.Fatalf("Precede built %+v, want min=delay(a)=2", c)
	}
	if err := p.Precede("zz", "b"); err == nil {
		t.Fatal("Precede accepted unknown task")
	}

	p.Release("b", 7)
	c = p.Constraints[len(p.Constraints)-1]
	if c.From != Anchor || c.Min != 7 {
		t.Fatalf("Release built %+v", c)
	}

	p.Deadline("b", 9)
	c = p.Constraints[len(p.Constraints)-1]
	if c.From != Anchor || !c.HasMax || c.Max != 9 {
		t.Fatalf("Deadline built %+v", c)
	}

	p.Window("a", "b", 1, 3)
	c = p.Constraints[len(p.Constraints)-1]
	if c.Min != 1 || c.Max != 3 || !c.HasMax {
		t.Fatalf("Window built %+v", c)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := validProblem()
	p.MinSep("a", "b", 1)
	q := p.Clone()
	q.Tasks[0].Name = "changed"
	q.Constraints[0].Min = 99
	q.AddTask(Task{Name: "c", Resource: "R", Delay: 1})
	if p.Tasks[0].Name != "a" || p.Constraints[0].Min != 1 || len(p.Tasks) != 2 {
		t.Fatal("Clone shares state with the original")
	}
}

func TestLookupsAndResources(t *testing.T) {
	p := validProblem()
	idx := p.TaskIndex()
	if idx["a"] != 0 || idx["b"] != 1 {
		t.Fatalf("TaskIndex = %v", idx)
	}
	if _, ok := p.TaskByName("b"); !ok {
		t.Fatal("TaskByName missed b")
	}
	if _, ok := p.TaskByName("zz"); ok {
		t.Fatal("TaskByName invented zz")
	}
	rs := p.Resources()
	if len(rs) != 2 || rs[0] != "R" || rs[1] != "S" {
		t.Fatalf("Resources = %v", rs)
	}
}

func TestConstraintString(t *testing.T) {
	c := Constraint{From: "a", To: "b", Min: 2, Max: 9, HasMax: true}
	if got := c.String(); got != "a -> b [2,9]" {
		t.Fatalf("String = %q", got)
	}
	c.HasMax = false
	if got := c.String(); got != "a -> b [2,]" {
		t.Fatalf("String = %q", got)
	}
}

func TestEffDelay(t *testing.T) {
	for _, c := range []struct {
		d         Time
		mult, spd float64
		want      Time
	}{
		{d: 5, mult: 1, spd: 1, want: 5},
		{d: 5, mult: 1, spd: 2, want: 3},
		{d: 5, mult: 1.5, spd: 1, want: 8},
		{d: 0, mult: 1, spd: 1, want: 1},
		{d: 1 << 40, mult: 1, spd: 1, want: 1 << 40},
		// Quotients past the cap saturate instead of wrapping to
		// MinInt64 and being floored to 1.
		{d: 5, mult: 1, spd: 1e-300, want: effDelayCap},
		{d: 1 << 62, mult: 4, spd: 1, want: effDelayCap},
		{d: 5, mult: 1e308, spd: 1e-10, want: effDelayCap},
		{d: 5, mult: math.NaN(), spd: 1, want: effDelayCap},
	} {
		got := EffDelay(c.d, c.mult, c.spd)
		if got != c.want {
			t.Errorf("EffDelay(%d, %g, %g) = %d, want %d", c.d, c.mult, c.spd, got, c.want)
		}
	}
	if effDelayCap <= MaxHorizon {
		t.Errorf("saturated delay %d is within MaxHorizon %d", effDelayCap, MaxHorizon)
	}
}
