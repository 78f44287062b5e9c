package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// opStream decodes a byte string into bounded operation arguments; an
// exhausted stream reads as zeros.
type opStream struct {
	b []byte
	i int
}

func (s *opStream) next(k int) int {
	if s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % k
	s.i++
	return v
}

func (s *opStream) done() bool { return s.i >= len(s.b) }

// bellmanFord is the reference longest-path solver over a plain edge
// list: ok is false when a positive cycle is reachable from src.
func bellmanFord(n int, edges []Edge, src int) ([]int, bool) {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = NoPath
	}
	dist[src] = 0
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range edges {
			if dist[e.From] != NoPath && dist[e.From]+e.W > dist[e.To] {
				dist[e.To] = dist[e.From] + e.W
				changed = true
			}
		}
		if !changed {
			return dist, true
		}
	}
	return dist, false
}

// checkAgainstModel compares every view of g with the model edge list:
// each vertex's out- and in-walk is the model's insertion-ordered
// sublist, Edges is the model, and LongestFromInto agrees with
// Bellman-Ford.
func checkAgainstModel(g *Graph, model []Edge) error {
	if g.NumEdges() != len(model) {
		return fmt.Errorf("%d edges, model has %d", g.NumEdges(), len(model))
	}
	if got := g.Edges(); !slices.Equal(got, model) {
		return fmt.Errorf("Edges() = %v, model %v", got, model)
	}
	for v := 0; v < g.N(); v++ {
		var out, in, wantOut, wantIn []Edge
		for id := g.FirstOut(v); id >= 0; id = g.NextOut(id) {
			out = append(out, g.Edge(id))
		}
		for id := g.FirstIn(v); id >= 0; id = g.NextIn(id) {
			in = append(in, g.Edge(id))
		}
		for _, e := range model {
			if e.From == v {
				wantOut = append(wantOut, e)
			}
			if e.To == v {
				wantIn = append(wantIn, e)
			}
		}
		if !slices.Equal(out, wantOut) {
			return fmt.Errorf("vertex %d out-walk %v, model %v", v, out, wantOut)
		}
		if !slices.Equal(in, wantIn) {
			return fmt.Errorf("vertex %d in-walk %v, model %v", v, in, wantIn)
		}
	}
	dist := make([]int, g.N())
	ok := g.LongestFromInto(dist, 0)
	want, wantOK := bellmanFord(g.N(), model, 0)
	if ok != wantOK || (ok && !slices.Equal(dist, want)) {
		return fmt.Errorf("LongestFromInto = %v (ok %v), Bellman-Ford %v (ok %v)", dist, ok, want, wantOK)
	}
	return nil
}

// runGraphModel drives a graph and a naive edge-list model through the
// operations the stream encodes — AddEdge, Mark, Rollback to an
// earlier mark, AddEdgeRelaxUndo with an undo replay — and checks them
// against each other after every step.
func runGraphModel(data []byte) error {
	s := &opStream{b: data}
	n := 2 + s.next(7)
	g := New(n, s.next(4))
	var model []Edge
	var marks []Checkpoint
	edge := func() (int, int, int) {
		u, v := s.next(n), s.next(n-1)
		if v >= u {
			v++
		}
		if u < v {
			return u, v, s.next(6)
		}
		return u, v, -s.next(13)
	}
	for step := 0; !s.done(); step++ {
		switch op := s.next(4); op {
		case 0:
			u, v, w := edge()
			g.AddEdge(u, v, w)
			model = append(model, Edge{From: u, To: v, W: w})
		case 1:
			marks = append(marks, g.Mark())
		case 2:
			if len(marks) == 0 {
				continue
			}
			k := s.next(len(marks))
			g.Rollback(marks[k])
			model = model[:marks[k]]
			marks = marks[:k]
		case 3:
			before, ok := bellmanFord(n, model, 0)
			if !ok {
				continue
			}
			u, v, w := edge()
			dist := slices.Clone(before)
			undo, incOK := g.AddEdgeRelaxUndo(dist, u, v, w, nil)
			model = append(model, Edge{From: u, To: v, W: w})
			want, wantOK := bellmanFord(n, model, 0)
			if incOK != wantOK || (incOK && !slices.Equal(dist, want)) {
				return fmt.Errorf("step %d: AddEdgeRelaxUndo(%d->%d, %d) = %v (ok %v), Bellman-Ford %v (ok %v)",
					step, u, v, w, dist, incOK, want, wantOK)
			}
			for i := len(undo) - 1; i >= 0; i-- {
				dist[undo[i].V] = undo[i].Old
			}
			if !slices.Equal(dist, before) {
				return fmt.Errorf("step %d: undo replay restored %v, want %v", step, dist, before)
			}
		}
		if err := checkAgainstModel(g, model); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	return nil
}

// TestGraphMatchesModel runs random operation sequences against the
// edge-list model: adjacency walks must come out in insertion order
// through every mutation and rollback.
func TestGraphMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 40+rng.Intn(300))
		rng.Read(data)
		if err := runGraphModel(data); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzGraphOps drives the same model from fuzz bytes.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 3, 1, 0, 2, 0, 1, 3, 1, 1, 4, 2, 0})
	f.Add([]byte{6, 1, 1, 0, 0, 3, 0, 0, 5, 1, 3, 2, 0, 2, 4, 0, 3, 1, 9, 2, 0, 3, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		if err := runGraphModel(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGraphSteadyStateAllocFree: once the arena and the relaxation
// scratch have grown, adding edges, relaxing, solving and rolling back
// allocate nothing.
func TestGraphSteadyStateAllocFree(t *testing.T) {
	const n = 64
	g := New(n, 0)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v, v%5)
		if v > 1 {
			g.AddEdge(v-1, v, 2)
		}
	}
	dist := make([]int, n)
	if !g.LongestFromInto(dist, 0) {
		t.Fatal("base graph infeasible")
	}
	undo := make([]DistSave, 0, 4*n)
	cycle := func() {
		cp := g.Mark()
		for v := 2; v < n; v += 3 {
			g.AddEdge(v, v-1, -7)
		}
		var ok bool
		undo, ok = g.AddEdgeRelaxUndo(dist, 0, n/2, 3*n, undo[:0])
		if !ok {
			t.Fatal("relaxation closed a cycle")
		}
		for i := len(undo) - 1; i >= 0; i-- {
			dist[undo[i].V] = undo[i].Old
		}
		g.LongestFromInto(dist, 0)
		g.Rollback(cp)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state add/relax/rollback cycle: %v allocs, want 0", avg)
	}
}
