package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLongestPathChain(t *testing.T) {
	g := New(4, 0)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.AddEdge(2, 3, 2)
	dist, ok := g.LongestFrom(0)
	if !ok {
		t.Fatal("unexpected positive cycle")
	}
	want := []int{0, 5, 8, 10}
	for i, w := range want {
		if dist[i] != w {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], w)
		}
	}
}

func TestLongestPathPicksMaximum(t *testing.T) {
	// Two routes 0->3: direct (7) and via 1,2 (4+4=8).
	g := New(4, 0)
	g.AddEdge(0, 3, 7)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 3, 4)
	dist, ok := g.LongestFrom(0)
	if !ok || dist[3] != 8 {
		t.Fatalf("dist[3] = %d (ok=%v), want 8", dist[3], ok)
	}
}

func TestUnreachableVertex(t *testing.T) {
	g := New(3, 0)
	g.AddEdge(0, 1, 1)
	dist, ok := g.LongestFrom(0)
	if !ok {
		t.Fatal("unexpected cycle")
	}
	if dist[2] != NoPath {
		t.Errorf("dist[2] = %d, want NoPath", dist[2])
	}
}

func TestNegativeEdgesFeasibleWindow(t *testing.T) {
	// Window: 1 must start within [2,6] after 0: edges (0->1, 2) and
	// (1->0, -6). Feasible; longest path gives the ASAP time 2.
	g := New(2, 0)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, -6)
	dist, ok := g.LongestFrom(0)
	if !ok {
		t.Fatal("feasible window reported as cycle")
	}
	if dist[1] != 2 {
		t.Errorf("dist[1] = %d, want 2", dist[1])
	}
}

func TestPositiveCycleDetected(t *testing.T) {
	// Contradictory window: 1 at least 10 after 0 but at most 6 after.
	g := New(2, 0)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 0, -6)
	if _, ok := g.LongestFrom(0); ok {
		t.Fatal("positive cycle not detected")
	}
}

func TestCycleUnreachableFromSourceIsIgnored(t *testing.T) {
	// A positive cycle exists among {1,2} but nothing connects the
	// source to it; the constraint system rooted at 0 stays solvable.
	g := New(3, 0)
	g.AddEdge(1, 2, 5)
	g.AddEdge(2, 1, 5)
	if _, ok := g.LongestFrom(0); !ok {
		t.Fatal("unreachable cycle should not fail the source's system")
	}
}

func TestRollbackRestoresEdges(t *testing.T) {
	g := New(3, 0)
	g.AddEdge(0, 1, 1)
	cp := g.Mark()
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 9)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	g.Rollback(cp)
	if g.NumEdges() != 1 {
		t.Fatalf("edges after rollback = %d, want 1", g.NumEdges())
	}
	dist, ok := g.LongestFrom(0)
	if !ok || dist[2] != NoPath {
		t.Fatalf("rollback left stale edges: dist=%v", dist)
	}
}

func TestNestedRollback(t *testing.T) {
	g := New(4, 0)
	cp0 := g.Mark()
	g.AddEdge(0, 1, 1)
	cp1 := g.Mark()
	g.AddEdge(1, 2, 1)
	g.Rollback(cp1)
	g.AddEdge(1, 3, 1)
	g.Rollback(cp0)
	if g.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0", g.NumEdges())
	}
	if g.FirstOut(0) >= 0 || g.FirstIn(1) >= 0 {
		t.Fatal("adjacency lists not emptied")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := New(2, 0)
	g.AddEdge(0, 1, 3)
	c := g.Clone()
	c.AddEdge(1, 0, -5)
	if g.NumEdges() != 1 {
		t.Fatalf("clone mutation leaked into original (%d edges)", g.NumEdges())
	}
	if c.NumEdges() != 2 {
		t.Fatalf("clone edges = %d, want 2", c.NumEdges())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2, 0)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 0) },
		func() { g.AddEdge(0, 2, 0) },
		func() { g.AddEdge(1, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRollbackToFutureCheckpointPanics(t *testing.T) {
	g := New(2, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Rollback(Checkpoint(5))
}

// TestQuickRollbackIdentity: for random DAG edge batches, adding edges
// and rolling them back always restores the previous longest-path
// solution exactly.
func TestQuickRollbackIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := New(n, 0)
		// Base forward edges (a DAG: always feasible).
		for i := 0; i < n-1; i++ {
			g.AddEdge(i, i+1, rng.Intn(5))
		}
		before, ok := g.LongestFrom(0)
		if !ok {
			return false
		}
		cp := g.Mark()
		for k := 0; k < 5; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, rng.Intn(21)-10)
			}
		}
		g.Rollback(cp)
		after, ok := g.LongestFrom(0)
		if !ok {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickLongestPathSatisfiesConstraints: whenever LongestFrom
// succeeds, the distances satisfy every edge constraint
// dist[to] >= dist[from] + w for edges reachable from the source.
func TestQuickLongestPathSatisfiesConstraints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := New(n, 0)
		for i := 0; i < n; i++ {
			if i > 0 {
				g.AddEdge(i-1, i, rng.Intn(5))
			}
		}
		// A few random extra edges; skip if they make it infeasible.
		for k := 0; k < 4; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, rng.Intn(15)-7)
			}
		}
		dist, ok := g.LongestFrom(0)
		if !ok {
			return true // infeasible is a legal outcome
		}
		for _, e := range g.Edges() {
			if dist[e.From] == NoPath {
				continue
			}
			if dist[e.To] < dist[e.From]+e.W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
