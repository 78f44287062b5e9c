package graph

// DistSave records one overwritten longest-path entry: vertex V held
// Old before the relaxation that journaled it first touched it.
type DistSave struct {
	V   int
	Old int
}

// AddEdgeRelaxUndo adds the edge and incrementally updates dist — a
// valid single-source longest-path solution for the graph *before* the
// addition — to the solution *after* it, by relaxing outward from the
// edge's head. This is the scheduler's inner loop: a delay or
// serialization edge typically shifts only a small cone of successors,
// so relaxing from the change is much cheaper than recomputing from the
// source. ok is false when the new edge closes a positive cycle.
//
// The first time a call moves a vertex's dist entry it appends (vertex,
// previous value) to undo, so replaying the returned slice backwards —
// undo[i].V gets undo[i].Old, from the end down to the caller's mark —
// restores dist exactly as it was before the call. The journal is valid
// even when ok is false: the entries recorded up to the detection point
// are precisely the writes that must be undone, which is what lets
// callers keep a single live distance vector instead of snapshotting it
// per speculative edge. Entries appear in first-touch order, so the
// journal's vertex set is exactly the set of moved vertices, and a
// caller batching several calls into one journal restores across all of
// them with the same backwards replay.
//
// The relaxation queue and its membership marks live in graph-owned
// scratch reused across calls (epoch-stamped, so reuse needs no
// clearing). Like every mutating graph method, concurrent calls on a
// shared graph are not safe.
func (g *Graph) AddEdgeRelaxUndo(dist []int, from, to, w int, undo []DistSave) ([]DistSave, bool) {
	g.AddEdge(from, to, w)
	if dist[from] == NoPath || dist[from]+w <= dist[to] {
		return undo, true
	}
	undo = append(undo, DistSave{V: to, Old: dist[to]})
	dist[to] = dist[from] + w

	s := g.relaxScratch()
	epoch := s.epoch
	queue := s.queue[:0]
	queue = append(queue, to)
	s.queueGen[to] = epoch
	s.touchGen[to] = epoch
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		s.queueGen[u] = 0
		if s.countGen[u] != epoch {
			s.countGen[u] = epoch
			s.count[u] = 0
		}
		s.count[u]++
		if s.count[u] > g.n {
			s.queue = queue
			return undo, false
		}
		du := dist[u]
		for _, e := range g.out[u] {
			if nd := du + e.W; nd > dist[e.To] {
				if s.touchGen[e.To] != epoch {
					undo = append(undo, DistSave{V: e.To, Old: dist[e.To]})
					s.touchGen[e.To] = epoch
				}
				dist[e.To] = nd
				if s.queueGen[e.To] != epoch {
					queue = append(queue, e.To)
					s.queueGen[e.To] = epoch
				}
			}
		}
	}
	s.queue = queue
	return undo, true
}

// LongestFromInto is LongestFrom writing into a caller-provided dist
// slice (length >= N()) and drawing its queue and bookkeeping from the
// graph's scratch area, so repeated calls allocate nothing. Unlike
// LongestFrom it mutates graph-internal scratch, so concurrent calls on
// a shared graph are not safe; the scheduler only uses it on its
// private working graph. ok is false on a reachable positive cycle.
func (g *Graph) LongestFromInto(dist []int, src int) (ok bool) {
	if len(dist) < g.n {
		panic("graph: LongestFromInto dist slice too short")
	}
	for i := 0; i < g.n; i++ {
		dist[i] = NoPath
	}
	dist[src] = 0

	s := g.relaxScratch()
	epoch := s.epoch
	queue := s.queue[:0]
	queue = append(queue, src)
	s.queueGen[src] = epoch
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		s.queueGen[u] = 0
		if s.countGen[u] != epoch {
			s.countGen[u] = epoch
			s.count[u] = 0
		}
		s.count[u]++
		if s.count[u] > g.n {
			s.queue = queue
			return false
		}
		du := dist[u]
		for _, e := range g.out[u] {
			if nd := du + e.W; nd > dist[e.To] {
				dist[e.To] = nd
				if s.queueGen[e.To] != epoch {
					queue = append(queue, e.To)
					s.queueGen[e.To] = epoch
				}
			}
		}
	}
	s.queue = queue
	return true
}

// scratch holds the relaxation workspace reused by AddEdgeRelaxUndo
// and LongestFromInto. Membership marks are epoch-stamped: a vertex is
// marked iff its gen entry equals the current call's epoch, so starting
// a call costs one counter increment instead of three O(n) clears.
// Epochs start at 1; 0 doubles as the dequeued marker.
type scratch struct {
	epoch    int
	queueGen []int // epoch when the vertex was last enqueued
	touchGen []int // epoch when the vertex was last journaled
	countGen []int // epoch of the vertex's dequeue counter
	count    []int // dequeues this epoch; > n implies a positive cycle
	queue    []int
}

// relaxScratch sizes the scratch to the vertex count and opens a fresh
// epoch.
func (g *Graph) relaxScratch() *scratch {
	s := &g.sc
	if len(s.queueGen) < g.n {
		s.queueGen = make([]int, g.n)
		s.touchGen = make([]int, g.n)
		s.countGen = make([]int, g.n)
		s.count = make([]int, g.n)
	}
	s.epoch++
	return s
}
