package impacct_test

import (
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/schedule"
)

// TestStressLargeInstances pushes realistic-scale problems through the
// full pipeline and the independent oracle. Skipped under -short.
func TestStressLargeInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for _, n := range []int{100, 200, 300} {
		n := n
		t.Run(itoa(n), func(t *testing.T) {
			p := analysis.Generate(analysis.GenConfig{Tasks: n, Resources: 8, Seed: int64(n)})
			r, err := impacct.Run(p, impacct.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := schedule.CheckTimeValid(r.Compiled.Base, r.Compiled, r.Schedule); err != nil {
				t.Fatal(err)
			}
			if rep := impacct.Verify(p, r.Schedule); !rep.OK() {
				t.Fatal(rep.Err())
			}
			if !r.Profile.Valid(p.Pmax) {
				t.Fatalf("spikes remain at %d tasks", n)
			}
			t.Logf("%d tasks: tau=%d, cost=%.1f, util=%.3f, scans=%d, moves=%d",
				n, r.Finish(), r.EnergyCost(), r.Utilization(), r.Stats.Scans, r.Stats.Moves)
		})
	}
}

// TestStressDeepPrecedence exercises long dependency chains (deep
// graphs stress the longest-path propagation).
func TestStressDeepPrecedence(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	p := &impacct.Problem{Name: "deep", Pmax: 12, Pmin: 4, BasePower: 1}
	const depth = 150
	prev := ""
	for i := 0; i < depth; i++ {
		name := "t" + itoa(i)
		p.AddTask(impacct.Task{Name: name, Resource: "R" + itoa(i%3), Delay: 2, Power: 3 + float64(i%3)})
		if prev != "" {
			p.MinSep(prev, name, 2)
		}
		prev = name
	}
	r, err := impacct.Run(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := impacct.Verify(p, r.Schedule); !rep.OK() {
		t.Fatal(rep.Err())
	}
	if r.Finish() != 2*depth {
		t.Fatalf("chain finish = %d, want %d", r.Finish(), 2*depth)
	}
}

// TestStressWideParallel exercises many independent tasks squeezed
// through a tight budget — worst case for the spike-elimination loop.
func TestStressWideParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	p := &impacct.Problem{Name: "wide", Pmax: 15, Pmin: 10, BasePower: 1}
	const width = 60
	for i := 0; i < width; i++ {
		p.AddTask(impacct.Task{
			Name:     "w" + itoa(i),
			Resource: "R" + itoa(i), // all independent resources
			Delay:    3,
			Power:    6,
		})
	}
	r, err := impacct.Run(p, impacct.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := impacct.Verify(p, r.Schedule); !rep.OK() {
		t.Fatal(rep.Err())
	}
	// At most two 6 W tasks fit under 15 W with the 1 W base:
	// 60 tasks * 3 s / 2 lanes = 90 s minimum.
	if r.Finish() < 90 {
		t.Fatalf("finish %d beats the 90 s packing bound", r.Finish())
	}
	if r.Finish() > 120 {
		t.Errorf("finish %d far above the 90 s bound (poor packing)", r.Finish())
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
