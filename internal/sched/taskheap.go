package sched

// taskHeap is the timing search's candidate order: an indexed binary
// min-heap over the unvisited tasks keyed (dist, prio), where prio is a
// permutation, so keys are unique and the order is total.
//
// The heap keeps its own copy of every key rather than reading the
// live longest-path bank. A relaxation rewrites a whole batch of dist
// entries at once; sifting each of them against neighbours whose dist
// already moved while their heap positions still reflect the old
// values would corrupt the heap. With private keys the heap stays a
// valid heap of the keys it holds, and each journaled change is applied
// as one key update followed by its own fix (set).
type taskHeap struct {
	h     []int       // tasks in heap order
	ent   []heapEntry // per task
	stack []int       // scratch for above
}

// heapEntry is one task's heap position (-1 when the task is not in
// the heap) and key (dist as of its last set, then prio).
type heapEntry struct {
	pos, key, prio int
}

func newTaskHeap(n int) taskHeap {
	return taskHeap{h: make([]int, 0, n), ent: make([]heapEntry, n)}
}

// less orders tasks by (key, prio).
func (q *taskHeap) less(a, b int) bool {
	ea, eb := &q.ent[a], &q.ent[b]
	return ea.key < eb.key || (ea.key == eb.key && ea.prio < eb.prio)
}

// init fills the heap with every task, keyed by dist and tie-broken by
// prio.
func (q *taskHeap) init(dist, prio []int) {
	q.h = q.h[:0]
	for v := range q.ent {
		q.ent[v] = heapEntry{pos: v, key: dist[v], prio: prio[v]}
		q.h = append(q.h, v)
	}
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// push inserts the absent task v with key k.
func (q *taskHeap) push(v, k int) {
	q.ent[v].key = k
	q.ent[v].pos = len(q.h)
	q.h = append(q.h, v)
	q.up(len(q.h) - 1)
}

// remove takes the present task v out of the heap.
func (q *taskHeap) remove(v int) {
	i, last := q.ent[v].pos, len(q.h)-1
	q.ent[v].pos = -1
	if i != last {
		u := q.h[last]
		q.h[i], q.ent[u].pos = u, i
	}
	q.h = q.h[:last]
	if i != last {
		q.fix(i)
	}
}

// set re-keys v to k. Vertices outside the heap (visited tasks, the
// anchor) are ignored, and so is an unchanged key.
func (q *taskHeap) set(v, k int) {
	if v >= len(q.ent) || q.ent[v].pos < 0 || q.ent[v].key == k {
		return
	}
	q.ent[v].key = k
	q.fix(q.ent[v].pos)
}

// above returns the heap's smallest task whose key is strictly greater
// than last's, or the smallest task outright when last < 0; -1 when
// there is none. Only tasks at or below last's key are expanded, so
// with the failed siblings of one search depth below last the cost is
// O(siblings), and nothing leaves the heap: deeper depths see those
// siblings again.
func (q *taskHeap) above(last int) int {
	if len(q.h) == 0 {
		return -1
	}
	if last < 0 {
		return q.h[0]
	}
	best := -1
	stack := append(q.stack[:0], 0)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v := q.h[i]; q.less(last, v) {
			if best < 0 || q.less(v, best) {
				best = v
			}
			continue // v's subtree holds only larger keys
		}
		if c := 2*i + 1; c < len(q.h) {
			stack = append(stack, c)
			if c+1 < len(q.h) {
				stack = append(stack, c+1)
			}
		}
	}
	q.stack = stack
	return best
}

// fix restores the heap order around index i after its key changed.
func (q *taskHeap) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q *taskHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.h[i], q.h[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// down sifts index i toward the leaves and reports whether it moved.
func (q *taskHeap) down(i int) bool {
	i0, n := i, len(q.h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.less(q.h[c+1], q.h[c]) {
			c++
		}
		if !q.less(q.h[c], q.h[i]) {
			break
		}
		q.swap(i, c)
		i = c
	}
	return i > i0
}

func (q *taskHeap) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.ent[q.h[i]].pos, q.ent[q.h[j]].pos = i, j
}
