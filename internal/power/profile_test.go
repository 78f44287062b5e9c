package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/schedule"
)

func buildSimple() Profile {
	tasks := []model.Task{
		{Name: "a", Resource: "A", Delay: 4, Power: 5},
		{Name: "b", Resource: "B", Delay: 4, Power: 3},
	}
	s := schedule.Schedule{Start: []model.Time{0, 2}}
	return Build(tasks, s, 1)
}

func TestBuildSegments(t *testing.T) {
	p := buildSimple()
	// [0,2): 6, [2,4): 9, [4,6): 4.
	want := []Segment{{0, 2, 6}, {2, 4, 9}, {4, 6, 4}}
	if len(p.Segs) != len(want) {
		t.Fatalf("segments = %v, want %v", p.Segs, want)
	}
	for i, w := range want {
		if p.Segs[i] != w {
			t.Errorf("seg[%d] = %v, want %v", i, p.Segs[i], w)
		}
	}
}

func TestBuildMergesEqualAdjacent(t *testing.T) {
	tasks := []model.Task{
		{Name: "a", Resource: "A", Delay: 2, Power: 5},
		{Name: "b", Resource: "B", Delay: 2, Power: 5},
	}
	s := schedule.Schedule{Start: []model.Time{0, 2}}
	p := Build(tasks, s, 0)
	if len(p.Segs) != 1 || p.Segs[0] != (Segment{0, 4, 5}) {
		t.Fatalf("segments = %v, want one merged segment", p.Segs)
	}
}

func TestEmptyProfile(t *testing.T) {
	p := Build(nil, schedule.Schedule{}, 3)
	if p.Duration() != 0 || p.Energy() != 0 || p.Peak() != 0 || p.Floor() != 0 {
		t.Fatalf("empty profile not empty: %+v", p)
	}
	if p.Utilization(5) != 1 {
		t.Fatal("empty profile utilization != 1")
	}
}

func TestAt(t *testing.T) {
	p := buildSimple()
	cases := map[model.Time]float64{0: 6, 1: 6, 2: 9, 3: 9, 4: 4, 5: 4, 6: 0, -1: 0, 100: 0}
	for tt, want := range cases {
		if got := p.At(tt); got != want {
			t.Errorf("At(%d) = %g, want %g", tt, got, want)
		}
	}
}

func TestPeakFloorEnergy(t *testing.T) {
	p := buildSimple()
	if p.Peak() != 9 {
		t.Errorf("Peak = %g, want 9", p.Peak())
	}
	if p.Floor() != 4 {
		t.Errorf("Floor = %g, want 4", p.Floor())
	}
	if p.Energy() != 6*2+9*2+4*2 {
		t.Errorf("Energy = %g, want 38", p.Energy())
	}
	if p.Duration() != 6 {
		t.Errorf("Duration = %d, want 6", p.Duration())
	}
}

func TestSpikesAndGaps(t *testing.T) {
	p := buildSimple()
	if sp := p.Spikes(8); len(sp) != 1 || sp[0] != (Interval{2, 4}) {
		t.Errorf("Spikes(8) = %v", sp)
	}
	if sp := p.Spikes(9); len(sp) != 0 {
		t.Errorf("Spikes(9) = %v, want none (boundary is not a spike)", sp)
	}
	if gp := p.Gaps(6); len(gp) != 1 || gp[0] != (Interval{4, 6}) {
		t.Errorf("Gaps(6) = %v", gp)
	}
	if gp := p.Gaps(4); len(gp) != 0 {
		t.Errorf("Gaps(4) = %v, want none (boundary is not a gap)", gp)
	}
	if !p.Valid(9) || p.Valid(8.5) {
		t.Error("Valid() disagrees with Spikes()")
	}
}

func TestAdjacentViolationsMerge(t *testing.T) {
	tasks := []model.Task{
		{Name: "a", Resource: "A", Delay: 2, Power: 9},
		{Name: "b", Resource: "B", Delay: 2, Power: 10},
	}
	s := schedule.Schedule{Start: []model.Time{0, 2}}
	p := Build(tasks, s, 0)
	if sp := p.Spikes(8); len(sp) != 1 || sp[0] != (Interval{0, 4}) {
		t.Errorf("adjacent spikes did not merge: %v", sp)
	}
}

func TestEnergyCostAndUtilization(t *testing.T) {
	p := buildSimple()
	// pmin = 5: cost = (6-5)*2 + (9-5)*2 = 10; free used = 5*2+5*2+4*2 = 28.
	if got := p.EnergyCost(5); got != 10 {
		t.Errorf("EnergyCost(5) = %g, want 10", got)
	}
	if got := p.FreeEnergyUsed(5); got != 28 {
		t.Errorf("FreeEnergyUsed(5) = %g, want 28", got)
	}
	if got := p.Utilization(5); math.Abs(got-28.0/30.0) > 1e-12 {
		t.Errorf("Utilization(5) = %g, want %g", got, 28.0/30.0)
	}
	if got := p.Utilization(0); got != 1 {
		t.Errorf("Utilization(0) = %g, want 1 (no free energy)", got)
	}
	// pmin at the floor: full utilization.
	if got := p.Utilization(4); got != 1 {
		t.Errorf("Utilization(floor) = %g, want 1", got)
	}
}

func TestProfileString(t *testing.T) {
	p := buildSimple()
	if got := p.String(); got != "profile{[0,2)=6W [2,4)=9W [4,6)=4W}" {
		t.Errorf("String = %q", got)
	}
}

// randomProfile builds a profile from a random schedule for property
// tests.
func randomProfile(seed int64) (Profile, float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(8)
	tasks := make([]model.Task, n)
	starts := make([]model.Time, n)
	for i := range tasks {
		tasks[i] = model.Task{
			Name:     string(rune('a' + i)),
			Resource: "R",
			Delay:    1 + rng.Intn(10),
			Power:    rng.Float64() * 12,
		}
		starts[i] = rng.Intn(20)
	}
	base := rng.Float64() * 3
	return Build(tasks, schedule.Schedule{Start: starts}, base), base
}

// TestQuickProfileContiguous: segments always tile [0, tau) with no
// holes, no empty segments, and no two adjacent segments of equal
// power.
func TestQuickProfileContiguous(t *testing.T) {
	f := func(seed int64) bool {
		p, _ := randomProfile(seed)
		if len(p.Segs) == 0 {
			return true
		}
		if p.Segs[0].T0 != 0 {
			return false
		}
		for i, s := range p.Segs {
			if s.T1 <= s.T0 {
				return false
			}
			if i > 0 {
				if s.T0 != p.Segs[i-1].T1 {
					return false
				}
				if s.P == p.Segs[i-1].P {
					return false
				}
			}
		}
		return p.Segs[len(p.Segs)-1].T1 == p.Duration()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnergySplitIdentity: for any profile and any pmin,
// EnergyCost + FreeEnergyUsed == Energy: the free/costly split is a
// partition of total consumption.
func TestQuickEnergySplitIdentity(t *testing.T) {
	f := func(seed int64, pminRaw uint8) bool {
		p, _ := randomProfile(seed)
		pmin := float64(pminRaw) / 8
		total := p.EnergyCost(pmin) + p.FreeEnergyUsed(pmin)
		return math.Abs(total-p.Energy()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickUtilizationBounds: utilization is always within [0, 1], is
// exactly 1 at or below the floor, and is monotonically non-increasing
// in pmin.
func TestQuickUtilizationBounds(t *testing.T) {
	f := func(seed int64) bool {
		p, _ := randomProfile(seed)
		if p.Duration() == 0 {
			return true
		}
		prev := 1.0
		for pmin := 0.5; pmin < 16; pmin += 0.5 {
			u := p.Utilization(pmin)
			if u < 0 || u > 1+1e-12 {
				return false
			}
			if u > prev+1e-12 {
				return false
			}
			prev = u
		}
		return p.Utilization(p.Floor()) > 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnergyMatchesTasks: profile energy equals the sum of task
// energies plus base power over the duration.
func TestQuickEnergyMatchesTasks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		tasks := make([]model.Task, n)
		starts := make([]model.Time, n)
		want := 0.0
		for i := range tasks {
			tasks[i] = model.Task{Name: string(rune('a' + i)), Resource: "R",
				Delay: 1 + rng.Intn(10), Power: rng.Float64() * 12}
			starts[i] = rng.Intn(20)
			want += tasks[i].Energy()
		}
		base := rng.Float64() * 3
		p := Build(tasks, schedule.Schedule{Start: starts}, base)
		want += base * float64(p.Duration())
		return math.Abs(p.Energy()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSpikeGapDisjoint: no instant is both a spike and a gap, and
// At() agrees with the spike/gap classification.
func TestQuickSpikeGapDisjoint(t *testing.T) {
	f := func(seed int64, levelRaw uint8) bool {
		p, _ := randomProfile(seed)
		level := float64(levelRaw) / 10
		spikes := p.Spikes(level)
		gaps := p.Gaps(level)
		for _, s := range spikes {
			for _, g := range gaps {
				if s.T0 < g.T1 && g.T0 < s.T1 {
					return false
				}
			}
			if p.At(s.T0) <= level {
				return false
			}
		}
		for _, g := range gaps {
			if p.At(g.T0) >= level {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
