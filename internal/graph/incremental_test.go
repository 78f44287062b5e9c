package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// relax applies one AddEdgeRelaxUndo and discards the journal.
func relax(g *Graph, dist []int, from, to, w int) bool {
	_, ok := g.AddEdgeRelaxUndo(dist, from, to, w, nil)
	return ok
}

// replay restores dist by replaying undo backwards.
func replay(dist []int, undo []DistSave) {
	for i := len(undo) - 1; i >= 0; i-- {
		dist[undo[i].V] = undo[i].Old
	}
}

func TestAddEdgeRelaxSimple(t *testing.T) {
	g := New(4, 0)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	dist, ok := g.LongestFrom(0)
	if !ok {
		t.Fatal("infeasible base")
	}
	// New edge 0->2 weight 9 dominates the old path.
	if !relax(g, dist, 0, 2, 9) {
		t.Fatal("relax reported a cycle")
	}
	if dist[2] != 9 {
		t.Fatalf("dist[2] = %d, want 9", dist[2])
	}
	// Non-binding edge changes nothing.
	if !relax(g, dist, 0, 1, 1) {
		t.Fatal("relax reported a cycle")
	}
	if dist[1] != 2 {
		t.Fatalf("dist[1] = %d, want 2", dist[1])
	}
}

// TestAddEdgeRelaxDetectsCycle: a cycle-closing edge is reported, and
// replaying the journal (spanning an earlier successful edge too) plus a
// graph Rollback leaves dist exactly as it started.
func TestAddEdgeRelaxDetectsCycle(t *testing.T) {
	g := New(4, 0)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 2)
	dist, _ := g.LongestFrom(0)
	orig := slices.Clone(dist)
	cp := g.Mark()
	undo, ok := g.AddEdgeRelaxUndo(dist, 0, 2, 7, nil)
	if !ok {
		t.Fatal("feasible edge reported a cycle")
	}
	// 3 -> 1 with weight -1 closes a positive cycle (2+2-1 > 0).
	if undo, ok = g.AddEdgeRelaxUndo(dist, 3, 1, -1, undo); ok {
		t.Fatal("positive cycle not detected")
	}
	replay(dist, undo)
	g.Rollback(cp)
	if !slices.Equal(dist, orig) {
		t.Fatalf("dist after replay = %v, want %v", dist, orig)
	}
}

func TestAddEdgeRelaxPropagates(t *testing.T) {
	// Chain 0->1->2->3; delaying 1 shifts 2 and 3.
	g := New(5, 0)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1, 3)
	}
	dist, _ := g.LongestFrom(0)
	if !relax(g, dist, 0, 1, 10) { // push 1 from 3 to 10
		t.Fatal("cycle reported")
	}
	want := []int{0, 10, 13, 16, NoPath}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

// TestAddEdgeRelaxTouched: the journal holds exactly the vertices whose
// dist entry changed, each once with its previous value, and it extends
// the buffer it is given.
func TestAddEdgeRelaxTouched(t *testing.T) {
	g := New(5, 0)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1, 3)
	}
	dist, _ := g.LongestFrom(0)
	undo, ok := g.AddEdgeRelaxUndo(dist, 0, 1, 10, nil)
	if !ok {
		t.Fatal("cycle reported")
	}
	want := []DistSave{{V: 1, Old: 3}, {V: 2, Old: 6}, {V: 3, Old: 9}}
	if !slices.Equal(undo, want) {
		t.Fatalf("journal = %v, want %v", undo, want)
	}
	// A non-binding edge journals nothing and keeps the caller's prefix.
	undo, ok = g.AddEdgeRelaxUndo(dist, 0, 1, 1, undo)
	if !ok || !slices.Equal(undo, want) {
		t.Fatalf("non-binding edge: journal = %v, ok = %v", undo, ok)
	}
}

// randomGraph builds a chain plus a few random edges on 3..14 vertices.
func randomGraph(rng *rand.Rand) *Graph {
	n := 3 + rng.Intn(12)
	g := New(n, 0)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, rng.Intn(6))
	}
	for k := 0; k < 4; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, rng.Intn(13)-6)
		}
	}
	return g
}

// TestQuickRelaxTouchedIsExact: on random graphs the journal's vertex
// set equals the dist diff, with each vertex journaled once under its
// pre-call value.
func TestQuickRelaxTouchedIsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		before, ok := g.LongestFrom(0)
		if !ok {
			return true
		}
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			return true
		}
		incr := slices.Clone(before)
		undo, incOK := g.AddEdgeRelaxUndo(incr, u, v, rng.Intn(17)-8, nil)
		if !incOK {
			return true
		}
		set := make(map[int]bool, len(undo))
		for _, e := range undo {
			if set[e.V] {
				t.Logf("seed %d: vertex %d journaled twice", seed, e.V)
				return false
			}
			if e.Old != before[e.V] {
				t.Logf("seed %d: vertex %d journaled old %d, was %d", seed, e.V, e.Old, before[e.V])
				return false
			}
			set[e.V] = true
		}
		for i := range incr {
			if (incr[i] != before[i]) != set[i] {
				t.Logf("seed %d: vertex %d changed=%v journaled=%v", seed, i, incr[i] != before[i], set[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickRelaxMatchesFullRecompute: on random feasible graphs, a
// chain of incremental updates equals a full recompute after every
// edge, cycle detection agrees with LongestFrom, and replaying the
// batched journal backwards plus a graph Rollback restores dist bit for
// bit — on success and on the positive-cycle failure path alike.
func TestQuickRelaxMatchesFullRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		n := g.N()
		dist, ok := g.LongestFrom(0)
		if !ok {
			return true // infeasible base: nothing to compare
		}
		orig := slices.Clone(dist)
		cp := g.Mark()
		var undo []DistSave
		for k := 0; k < 3; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			var incOK bool
			undo, incOK = g.AddEdgeRelaxUndo(dist, u, v, rng.Intn(17)-8, undo)
			full, fullOK := g.LongestFrom(0)
			if incOK != fullOK {
				t.Logf("seed %d: ok mismatch inc=%v full=%v", seed, incOK, fullOK)
				return false
			}
			if !incOK {
				break // dist is partial; only the rollback below is defined
			}
			if !slices.Equal(full, dist) {
				t.Logf("seed %d: inc %v != full %v", seed, dist, full)
				return false
			}
		}
		replay(dist, undo)
		g.Rollback(cp)
		if !slices.Equal(dist, orig) {
			t.Logf("seed %d: replay restored %v, want %v", seed, dist, orig)
			return false
		}
		if again, _ := g.LongestFrom(0); !slices.Equal(again, orig) {
			t.Logf("seed %d: rolled-back graph solves to %v, want %v", seed, again, orig)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
