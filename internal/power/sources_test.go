package power

import (
	"testing"
)

func TestSolarConstant(t *testing.T) {
	s := NewSolar(12)
	for _, tt := range []int{0, 100, 99999} {
		if got := s.At(tt); got != 12 {
			t.Errorf("At(%d) = %g, want 12", tt, got)
		}
	}
}

func TestSolarPhases(t *testing.T) {
	s := NewSolar(14.9)
	s.AddPhase(600, 12)
	s.AddPhase(1200, 9)
	cases := map[int]float64{0: 14.9, 599: 14.9, 600: 12, 1199: 12, 1200: 9, 5000: 9}
	for tt, want := range cases {
		if got := s.At(tt); got != want {
			t.Errorf("At(%d) = %g, want %g", tt, got, want)
		}
	}
}

func TestSolarPhasesOutOfOrder(t *testing.T) {
	s := &Solar{}
	s.AddPhase(1200, 9)
	s.AddPhase(0, 14.9)
	s.AddPhase(600, 12)
	if got := s.At(700); got != 12 {
		t.Errorf("At(700) = %g, want 12", got)
	}
	// Before any phase: no output.
	s2 := &Solar{}
	s2.AddPhase(10, 5)
	if got := s2.At(3); got != 0 {
		t.Errorf("At(3) = %g, want 0 before first phase", got)
	}
}

func TestBatteryDraw(t *testing.T) {
	b := &Battery{Capacity: 100, MaxPower: 10}
	if err := b.Draw(60); err != nil {
		t.Fatal(err)
	}
	if b.Drawn() != 60 || b.Remaining() != 40 {
		t.Fatalf("drawn=%g remaining=%g", b.Drawn(), b.Remaining())
	}
	if err := b.Draw(50); err == nil {
		t.Fatal("overdraw accepted")
	}
	if b.Drawn() != 60 {
		t.Fatalf("failed draw was applied: drawn=%g", b.Drawn())
	}
	if err := b.Draw(-1); err == nil {
		t.Fatal("negative draw accepted")
	}
}

func TestBatteryUntrackedCapacity(t *testing.T) {
	b := &Battery{MaxPower: 10}
	if err := b.Draw(1e9); err != nil {
		t.Fatalf("untracked battery refused draw: %v", err)
	}
	if b.Remaining() >= 0 {
		t.Fatalf("untracked Remaining = %g, want negative sentinel", b.Remaining())
	}
}

func TestSupplyLevels(t *testing.T) {
	sol := NewSolar(14.9)
	sol.AddPhase(600, 9)
	sup := Supply{Solar: sol, Battery: &Battery{MaxPower: 10}}
	if got := sup.PminAt(0); got != 14.9 {
		t.Errorf("PminAt(0) = %g, want 14.9", got)
	}
	if got := sup.PminAt(700); got != 9 {
		t.Errorf("PminAt(700) = %g, want 9", got)
	}
}
