// Package graph implements the weighted constraint graph underlying the
// power-aware scheduler.
//
// A vertex per task plus one virtual anchor vertex; a directed edge
// (u -> v, w) encodes the difference constraint sigma(v) >= sigma(u) + w.
// Max separations sigma(v) <= sigma(u) + m are encoded as the reverse
// edge (v -> u, -m). The single-source longest path from the anchor
// yields the ASAP start times; a positive cycle proves the constraint
// system infeasible.
//
// The scheduling algorithms of the paper mutate the graph incrementally
// (serialization edges, delay edges, lock edges) and must be able to
// "undo changes to G since step B". The graph therefore journals every
// added edge and supports checkpoint/rollback in O(edges added).
package graph

import (
	"fmt"
	"math"
)

// NoPath marks a vertex unreachable from the longest-path source.
const NoPath = math.MinInt / 4

// Edge is a directed, weighted constraint edge.
type Edge struct {
	From, To int
	W        int
}

// Graph is a journaled weighted digraph over a fixed vertex set.
// The zero value is unusable; create graphs with New.
//
// Every edge is stored once, in an arena that doubles as the mutation
// journal: edge id i is the i-th live edge added, and a checkpoint is
// an arena length. Adjacency is threaded through the arena as doubly
// linked lists, one out-list per source and one in-list per
// destination, each in insertion order. Edges only ever leave the arena
// from its end (Rollback), and the newest edge is always the tail of
// both of its lists, so removal is a pop plus two tail restores.
type Graph struct {
	n     int
	arena []slot  // arena and journal: live edges in insertion order
	ends  []ends  // per vertex: the ends of its out- and in-list
	sc    scratch // relaxation workspace (see incremental.go)
}

// slot is one arena entry: an edge together with its neighbours in its
// source's out-list and its destination's in-list (-1 ends a list).
// Keeping the links beside the edge makes each step of an adjacency
// walk one 32-byte read.
type slot struct {
	from, to         int32
	w                int
	nextOut, prevOut int32
	nextIn, prevIn   int32
}

// ends holds the first and last edge ids of a vertex's out- and
// in-list; -1 when the list is empty.
type ends struct {
	firstOut, lastOut int32
	firstIn, lastIn   int32
}

// Checkpoint is an opaque marker into the mutation journal.
type Checkpoint int

// New returns a graph with n vertices and no edges whose arena has
// room for the given number of edges before it grows.
func New(n, edges int) *Graph {
	g := &Graph{
		n:     n,
		arena: make([]slot, 0, edges),
		ends:  make([]ends, n),
	}
	for v := range g.ends {
		g.ends[v] = ends{-1, -1, -1, -1}
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return len(g.arena) }

// AddEdge appends the constraint edge sigma(to) >= sigma(from) + w.
// Parallel edges are permitted; the effective constraint is the
// strongest (largest w), which longest-path relaxation honors naturally.
func (g *Graph) AddEdge(from, to, w int) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("graph: edge (%d -> %d) out of range [0,%d)", from, to, g.n))
	}
	if from == to {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", from))
	}
	id := int32(len(g.arena))
	f, t := &g.ends[from], &g.ends[to]
	g.arena = append(g.arena, slot{
		from: int32(from), to: int32(to), w: w,
		nextOut: -1, prevOut: f.lastOut,
		nextIn: -1, prevIn: t.lastIn,
	})
	if f.lastOut < 0 {
		f.firstOut = id
	} else {
		g.arena[f.lastOut].nextOut = id
	}
	f.lastOut = id
	if t.lastIn < 0 {
		t.firstIn = id
	} else {
		g.arena[t.lastIn].nextIn = id
	}
	t.lastIn = id
}

// Mark returns a checkpoint capturing the current edge set.
func (g *Graph) Mark() Checkpoint { return Checkpoint(len(g.arena)) }

// Rollback removes, in reverse order, every edge added after the
// checkpoint was taken.
func (g *Graph) Rollback(cp Checkpoint) {
	if int(cp) > len(g.arena) {
		panic("graph: rollback to a future checkpoint")
	}
	for i := len(g.arena) - 1; i >= int(cp); i-- {
		e := &g.arena[i]
		f, t := &g.ends[e.from], &g.ends[e.to]
		if f.lastOut = e.prevOut; e.prevOut < 0 {
			f.firstOut = -1
		} else {
			g.arena[e.prevOut].nextOut = -1
		}
		if t.lastIn = e.prevIn; e.prevIn < 0 {
			t.firstIn = -1
		} else {
			g.arena[e.prevIn].nextIn = -1
		}
	}
	g.arena = g.arena[:cp]
}

// FirstOut returns the id of v's oldest live outgoing edge, or -1.
// Outgoing edges are walked in insertion order:
//
//	for id := g.FirstOut(v); id >= 0; id = g.NextOut(id) { e := g.Edge(id); ... }
//
// Ids stay valid until a rollback removes the edge.
func (g *Graph) FirstOut(v int) int { return int(g.ends[v].firstOut) }

// NextOut returns the id of the outgoing edge of the same source added
// after edge id, or -1.
func (g *Graph) NextOut(id int) int { return int(g.arena[id].nextOut) }

// FirstIn returns the id of v's oldest live incoming edge, or -1.
func (g *Graph) FirstIn(v int) int { return int(g.ends[v].firstIn) }

// NextIn returns the id of the incoming edge of the same destination
// added after edge id, or -1.
func (g *Graph) NextIn(id int) int { return int(g.arena[id].nextIn) }

// Edge returns the live edge with the given id. The live ids are
// exactly 0..NumEdges()-1, in insertion order.
func (g *Graph) Edge(id int) Edge {
	e := &g.arena[id]
	return Edge{From: int(e.from), To: int(e.to), W: e.w}
}

// Edges returns a copy of all live edges in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.arena))
	for id := range out {
		out[id] = g.Edge(id)
	}
	return out
}

// Clone returns an independent copy of the graph: two bulk copies,
// with arena headroom so the copy's first edges do not regrow it.
func (g *Graph) Clone() *Graph {
	return &Graph{
		n:     g.n,
		arena: append(make([]slot, 0, len(g.arena)+len(g.arena)/2+16), g.arena...),
		ends:  append([]ends(nil), g.ends...),
	}
}

// LongestFrom computes single-source longest path distances from src
// using queue-based relaxation (SPFA). dist[v] is the length of the
// longest path src->v, or NoPath if v is unreachable. ok is false when
// a positive cycle is reachable from src, in which case dist is
// meaningless: the constraint system has no solution. It allocates its
// own workspace and only reads the graph, so it is the from-scratch
// reference the incremental relaxations are checked against.
func (g *Graph) LongestFrom(src int) (dist []int, ok bool) {
	dist = make([]int, g.n)
	for i := range dist {
		dist[i] = NoPath
	}
	dist[src] = 0

	inQueue := make([]bool, g.n)
	relaxed := make([]int, g.n) // times dequeued; > n implies positive cycle
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	inQueue[src] = true

	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		relaxed[u]++
		if relaxed[u] > g.n {
			return dist, false
		}
		du := dist[u]
		for id := g.ends[u].firstOut; id >= 0; id = g.arena[id].nextOut {
			e := &g.arena[id]
			if nd := du + e.w; nd > dist[e.to] {
				dist[e.to] = nd
				if !inQueue[e.to] {
					queue = append(queue, int(e.to))
					inQueue[e.to] = true
				}
			}
		}
	}
	return dist, true
}
