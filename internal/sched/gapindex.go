package sched

import (
	"math"

	"repro/internal/model"
	"repro/internal/schedule"
)

// gapIndex answers the min-power stage's candidate query as interval
// stabbing. Task v can be delayed into activity at gap time t exactly
// when fin_v <= t <= reach_v, with reach_v = fin_v + slack_v - 1 (+inf
// for InfiniteSlack). Tasks are bucketed by finish slot (fin >> shift,
// the last slot also taking every later finish) in intrusive doubly
// linked lists, under a max tree over the slots that holds each slot's
// largest reach. A query at t descends only into slots at or before
// t's whose subtree reach is >= t, so it costs O((answer slots + 1)
// log slots) plus their buckets, not O(n).
//
// Invariant, at every query: each task that is not queued is placed in
// the slot of its current finish with the reach of its current slack.
// The slack cache's invalidation is the index's only feed: dirtySlack
// queues every task whose cached slack it drops, refreshGapIndex
// re-places the queue before the next query, and dirtySlackAll requests
// a rebuild. A task's finish changes only through a move, which dirties
// its slack.
type gapIndex struct {
	shift uint         // slot of a finish time f is f >> shift
	size  int          // leaves of the max tree, a power of two
	tree  []model.Time // max reach per node; node 1 is the root, slot s is leaf size+s
	head  []int        // first task in each slot's bucket, -1 when empty
	ent   []gapEntry   // per task
	queue []int        // tasks to re-place at the next query
	// rebuild marks every entry stale: the next query rebuilds.
	rebuild bool
}

// gapEntry is one task's place in the index.
type gapEntry struct {
	fin, reach model.Time
	slot       int // -1 while unplaced
	next, prev int // bucket links, -1 at the ends
	queued     bool
}

// noReach is the max tree's empty value.
const noReach = model.Time(math.MinInt)

func newGapIndex(n int) gapIndex {
	return gapIndex{ent: make([]gapEntry, n), queue: make([]int, 0, n), rebuild: true}
}

// mark queues task v for re-placement.
func (x *gapIndex) mark(v int) {
	if e := &x.ent[v]; !x.rebuild && !e.queued {
		e.queued = true
		x.queue = append(x.queue, v)
	}
}

// reachOf is the last gap time a task finishing at fin with the given
// slack can be delayed into; InfiniteSlack saturates to +inf.
func reachOf(fin, slack model.Time) model.Time {
	if slack >= schedule.InfiniteSlack {
		return math.MaxInt
	}
	return fin + slack - 1
}

// refreshGapIndex brings the index up to date with the working schedule
// sigma: a full rebuild after dirtySlackAll, otherwise a re-placement
// of each queued task.
func (st *state) refreshGapIndex(sigma schedule.Schedule) {
	x := &st.gi
	if x.rebuild {
		var maxFin model.Time
		for v, d := range st.delays {
			e := &x.ent[v]
			e.fin = sigma.Start[v] + d
			e.reach = reachOf(e.fin, st.slackOf(sigma, v))
			e.queued = false
			maxFin = max(maxFin, e.fin)
		}
		x.build(maxFin)
		x.queue = x.queue[:0]
		x.rebuild = false
		return
	}
	for _, v := range x.queue {
		x.ent[v].queued = false
		fin := sigma.Start[v] + st.delays[v]
		x.place(v, fin, reachOf(fin, st.slackOf(sigma, v)))
	}
	x.queue = x.queue[:0]
}

// build sizes the tree for finish times up to maxFin and links every
// task at its entry's fin and reach. The shift coarsens finish times
// until at most 2n slots cover them, so a rebuild costs O(n) however
// long the schedule, and a problem of a few tasks gets a tree of a few
// slots.
func (x *gapIndex) build(maxFin model.Time) {
	slots := max(2*len(x.ent), 1)
	x.shift = 0
	for maxFin>>x.shift >= slots {
		x.shift++
	}
	size := 1
	for size <= int(maxFin>>x.shift) {
		size *= 2
	}
	if cap(x.head) < size {
		x.head, x.tree = make([]int, size), make([]model.Time, 2*size)
	}
	x.head, x.tree, x.size = x.head[:size], x.tree[:2*size], size
	for s := range x.head {
		x.head[s] = -1
		x.tree[size+s] = noReach
	}
	for v := range x.ent {
		e := &x.ent[v]
		x.link(v, x.slotOf(e.fin))
		if leaf := x.size + e.slot; e.reach > x.tree[leaf] {
			x.tree[leaf] = e.reach
		}
	}
	for i := x.size - 1; i >= 1; i-- {
		x.tree[i] = max(x.tree[2*i], x.tree[2*i+1])
	}
}

// slotOf is the slot of finish time fin. Finishes past the last slot
// share it: the slot's leaf reach and the fin <= t filter in stabNode
// keep the answers exact, and the rebuild at each stage and combo start
// sizes the tree for the schedule's finish times.
func (x *gapIndex) slotOf(fin model.Time) int {
	if fin < 0 {
		return 0
	}
	return min(int(fin>>x.shift), x.size-1)
}

// place moves task v to the slot of fin with the given reach.
func (x *gapIndex) place(v int, fin, reach model.Time) {
	e := &x.ent[v]
	s := x.slotOf(fin)
	if e.slot == s && e.reach == reach {
		e.fin = fin
		return
	}
	x.unlink(v)
	e.fin, e.reach = fin, reach
	x.link(v, s)
	for i := x.size + s; i >= 1 && x.tree[i] < reach; i /= 2 {
		x.tree[i] = reach
	}
}

// link prepends v to slot s's bucket.
func (x *gapIndex) link(v, s int) {
	e := &x.ent[v]
	h := x.head[s]
	e.prev, e.next, e.slot = -1, h, s
	if h >= 0 {
		x.ent[h].prev = v
	}
	x.head[s] = v
}

// unlink takes v out of its bucket, lowering the slot's reach when v
// held its maximum.
func (x *gapIndex) unlink(v int) {
	e := &x.ent[v]
	s := e.slot
	if s < 0 {
		return
	}
	if e.prev >= 0 {
		x.ent[e.prev].next = e.next
	} else {
		x.head[s] = e.next
	}
	if e.next >= 0 {
		x.ent[e.next].prev = e.prev
	}
	e.slot = -1
	i := x.size + s
	if e.reach < x.tree[i] {
		return
	}
	m := noReach
	for u := x.head[s]; u >= 0; u = x.ent[u].next {
		m = max(m, x.ent[u].reach)
	}
	x.tree[i] = m
	for i > 1 {
		i /= 2
		m = max(x.tree[2*i], x.tree[2*i+1])
		if x.tree[i] == m {
			break
		}
		x.tree[i] = m
	}
}

// stab appends to out every placed task with fin <= t <= reach, in no
// particular order.
func (x *gapIndex) stab(t model.Time, out []int) []int {
	if t < 0 || x.size == 0 {
		return out
	}
	return x.stabNode(1, 0, x.size, x.slotOf(t), t, out)
}

// stabNode visits node, which covers slots [lo, lo+width), restricted
// to slots <= hi.
func (x *gapIndex) stabNode(node, lo, width, hi int, t model.Time, out []int) []int {
	if lo > hi || x.tree[node] < t {
		return out
	}
	if width == 1 {
		for v := x.head[lo]; v >= 0; v = x.ent[v].next {
			if e := &x.ent[v]; e.fin <= t && e.reach >= t {
				out = append(out, v)
			}
		}
		return out
	}
	half := width / 2
	out = x.stabNode(2*node, lo, half, hi, t, out)
	return x.stabNode(2*node+1, lo+half, half, hi, t, out)
}
