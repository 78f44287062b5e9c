package power

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/model"
	"repro/internal/schedule"
)

// Tracker maintains the power profile of a schedule incrementally. It
// keeps a frozen reference — the breakpoints of the last materialized
// schedule — and an overlay of the tasks moved since: a Move is O(1),
// and a materialization re-merges only the breakpoints the moved tasks
// left or entered, copying every untouched run of the reference in
// bulk. This is the scheduler's hottest data structure — spike fixing,
// gap filling, and compaction all probe the profile after every
// candidate move.
//
// The tracker is bit-exact with Build: Profile returns segments whose
// power values are produced by the same floating-point operations in
// the same order Build performs them (base load first, then task
// contributions in task-index order, per-breakpoint sums rounded before
// the running prefix sum). Heuristics that compare profile values
// against thresholds therefore make identical decisions on the
// incremental and the from-scratch path.
type Tracker struct {
	tasks []model.Task
	base  float64
	start []model.Time
	// delays and powers are flat per-task banks mirroring the Delay and
	// Power fields of tasks, refreshed on Reset (a heterogeneous
	// scheduler rewrites the task view between restarts). The hot loops
	// read these dense 8-byte entries instead of copying ~88-byte
	// model.Task values.
	delays []model.Time
	powers []float64
	// bk holds the breakpoints of the reference schedule ref (base is
	// handled virtually at 0 and tau); spare is the buffer the next
	// reference is merged into. moved lists the tasks whose tracked
	// start differs from their reference start, movedAt[v] being v's
	// position in moved or -1: the overlay. A reference contribution of
	// a moved task is stale. Once every moved task is back at its
	// reference start the overlay is empty and the reference — and
	// hence a materialization, its peak/floor and its segment index — is
	// current again: an undo leaves the tracker clean without
	// re-materializing.
	bk, spare buckets
	ref       []model.Time
	moved     []int
	movedAt   []int
	// ins and gone are the overlay scratch of a merge: the moved tasks'
	// new contributions and the times of the reference buckets holding
	// their stale ones.
	ins  []entry
	gone []model.Time
	// prof is the materialization of the reference (when refOK).
	prof  Profile
	refOK bool
	// refSteps and refTerms are the reference materialization's number
	// of summed breakpoints and most terms in one breakpoint sum, and
	// absSum is |base| + 2*sum|power|: the inputs of the float error
	// bound CertainlyRejects certifies against. refFree caches the
	// reference's FreeEnergyUsed(refFreePmin).
	refSteps, refTerms   int
	absSum               float64
	refFree, refFreePmin float64
	refFreeOK            bool
	events               []event
	// materializations counts profile materializations, for tests that
	// guard how much work the heuristics make the tracker do.
	materializations int
	// maxP and minP are the materialized profile's peak and floor,
	// maintained for free during the segment sweep so per-probe validity
	// checks are O(1); idx is the hierarchical spike/gap index over the
	// materialized segments, rebuilt lazily on first query per
	// materialization (see index.go).
	maxP, minP float64
	idx        segIndex
	idxOK      bool
}

const (
	kindStart = 0 // +Power at the task's start time
	kindEnd   = 1 // -Power at the task's end time
)

type contrib struct {
	task int32
	kind int32
	p    float64 // signed contribution
}

// before reports whether a precedes b in canonical (task, kind) order,
// the order Build accumulates a breakpoint's contributions in.
func (a contrib) before(b contrib) bool {
	return a.task < b.task || (a.task == b.task && a.kind < b.kind)
}

// entry is a contribution at breakpoint time t.
type entry struct {
	t model.Time
	c contrib
}

// buckets is a breakpoint set in a pointer-free CSR layout: bucket i
// sits at time t[i] (ascending) and holds the contributions
// c[off[i]:off[i+1]] in canonical (task, kind) order, and sum[i] caches
// their sum as the profile sweep adds it: base first at time 0, then the
// contributions in order. Empty buckets are never stored, matching
// Build, which only creates breakpoints for times some task touches.
type buckets struct {
	t   []model.Time
	off []int
	c   []contrib
	sum []float64
}

// clear empties b, keeping its storage.
func (b *buckets) clear() {
	b.t, b.c, b.sum = b.t[:0], b.c[:0], b.sum[:0]
	b.off = append(b.off[:0], 0)
}

// copyRun appends buckets [i, k) of src with their cached sums.
func (b *buckets) copyRun(src *buckets, i, k int) {
	if i == k {
		return
	}
	shift := len(b.c) - src.off[i]
	b.t = append(b.t, src.t[i:k]...)
	b.sum = append(b.sum, src.sum[i:k]...)
	b.c = append(b.c, src.c[src.off[i]:src.off[k]]...)
	for _, o := range src.off[i+1 : k+1] {
		b.off = append(b.off, o+shift)
	}
}

// newBuckets returns an empty bucket set sized for n tasks: at most 2n
// breakpoints holding exactly 2n contributions, so it never grows.
func newBuckets(n int) buckets {
	return buckets{
		t:   make([]model.Time, 0, 2*n),
		off: make([]int, 0, 2*n+1),
		c:   make([]contrib, 0, 2*n),
		sum: make([]float64, 0, 2*n),
	}
}

// NewTracker builds a tracker for the given tasks positioned at s.
func NewTracker(tasks []model.Task, s schedule.Schedule, base float64) *Tracker {
	n := len(tasks)
	tr := &Tracker{
		tasks:   tasks,
		base:    base,
		start:   make([]model.Time, n),
		delays:  make([]model.Time, n),
		powers:  make([]float64, n),
		ref:     make([]model.Time, n),
		movedAt: make([]int, n),
		bk:      newBuckets(n),
		spare:   newBuckets(n),
		ins:     make([]entry, 0, 2*n),
		gone:    make([]model.Time, 0, 2*n),
	}
	for v := range tr.movedAt {
		tr.movedAt[v] = -1
	}
	tr.Reset(s)
	return tr
}

// Reset repositions every task at the starts of s, discarding all
// incremental state (used at stage boundaries, where the working
// schedule is re-derived wholesale). The flat delay/power banks are
// refreshed here too: a heterogeneous scheduler rewrites the task
// view's effective delays and powers between restarts. Every task whose
// start, delay or power differs from the reference joins the overlay,
// which is then folded in: a reset onto a schedule close to the
// reference costs one pass over the task banks and one merge.
func (tr *Tracker) Reset(s schedule.Schedule) {
	fresh := len(tr.bk.off) == 0 // no reference built yet
	for _, v := range tr.moved {
		tr.movedAt[v] = -1
	}
	tr.moved = tr.moved[:0]
	copy(tr.start, s.Start)
	gone := tr.gone[:0]
	tr.absSum = math.Abs(tr.base)
	for v := range tr.tasks {
		d, p := tr.tasks[v].Delay, tr.tasks[v].Power
		tr.absSum += 2 * math.Abs(p)
		if !fresh && tr.start[v] == tr.ref[v] && d == tr.delays[v] && math.Float64bits(p) == math.Float64bits(tr.powers[v]) {
			continue
		}
		gone = append(gone, tr.ref[v], tr.ref[v]+tr.delays[v])
		tr.delays[v], tr.powers[v] = d, p
		tr.movedAt[v] = len(tr.moved)
		tr.moved = append(tr.moved, v)
	}
	tr.fold(gone)
	tr.refOK = false
}

// Move repositions task v to start at s. It only records v in the
// overlay: O(1), independent of how the rest of the schedule looks.
func (tr *Tracker) Move(v int, s model.Time) {
	if s == tr.start[v] {
		return
	}
	tr.start[v] = s
	switch at := tr.movedAt[v]; {
	case s == tr.ref[v] && at >= 0:
		last := tr.moved[len(tr.moved)-1]
		tr.moved[at] = last
		tr.movedAt[last] = at
		tr.moved = tr.moved[:len(tr.moved)-1]
		tr.movedAt[v] = -1
	case s != tr.ref[v] && at < 0:
		tr.movedAt[v] = len(tr.moved)
		tr.moved = append(tr.moved, v)
	}
}

// Start returns the tracked start time of task v.
func (tr *Tracker) Start(v int) model.Time { return tr.start[v] }

// Profile materializes the current power profile, which becomes the
// new reference. The result is cached until a Move/Reset changes the
// schedule (moves that return every task to its reference start keep
// it); callers must not retain it across mutations (its segment slice
// is reused).
func (tr *Tracker) Profile() Profile {
	if tr.refOK && len(tr.moved) == 0 {
		return tr.prof
	}
	if len(tr.moved) > 0 {
		gone := tr.gone[:0]
		for _, v := range tr.moved {
			gone = append(gone, tr.ref[v], tr.ref[v]+tr.delays[v])
		}
		tr.fold(gone)
	}
	tr.prof = tr.materialize(tr.prof.Segs[:0])
	tr.materializations++
	tr.refOK = true
	return tr.prof
}

// Materializations returns how many times the tracker has materialized
// a profile since it was created.
func (tr *Tracker) Materializations() int { return tr.materializations }

// fold makes the tracked schedule the reference: it merges the
// overlay into the reference buckets and empties it. gone lists the
// times of the reference buckets holding the moved tasks' stale
// contributions. Runs of untouched buckets are copied in bulk with
// their cached sums; only the buckets at overlay times are re-merged in
// (task, kind) order and re-summed. Cost is O(B) copying plus
// O(Δ log Δ) for Δ moved tasks.
func (tr *Tracker) fold(gone []model.Time) {
	ins := tr.ins[:0]
	for _, v := range tr.moved {
		s, p := tr.start[v], tr.powers[v]
		ins = append(ins,
			entry{t: s, c: contrib{task: int32(v), kind: kindStart, p: p}},
			entry{t: s + tr.delays[v], c: contrib{task: int32(v), kind: kindEnd, p: -p}})
	}
	tr.ins, tr.gone = ins, gone
	slices.SortFunc(ins, func(a, b entry) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.c.task, b.c.task); c != 0 {
			return c
		}
		return cmp.Compare(a.c.kind, b.c.kind)
	})
	slices.Sort(gone)
	old, nb := &tr.bk, &tr.spare
	nb.clear()
	i := 0 // next reference bucket
	for len(ins) > 0 || len(gone) > 0 {
		var t model.Time
		switch {
		case len(gone) == 0:
			t = ins[0].t
		case len(ins) == 0:
			t = gone[0]
		default:
			t = min(ins[0].t, gone[0])
		}
		k, found := slices.BinarySearch(old.t[i:], t)
		k += i
		nb.copyRun(old, i, k)
		i = k
		var cs []contrib
		if found {
			cs = old.c[old.off[i]:old.off[i+1]]
			i++
		}
		var sum float64
		if t == 0 {
			sum = tr.base
		}
		n0 := len(nb.c)
		for {
			if len(cs) > 0 && tr.movedAt[cs[0].task] >= 0 {
				cs = cs[1:] // stale: its task moved
				continue
			}
			insHere := len(ins) > 0 && ins[0].t == t
			var c contrib
			if len(cs) > 0 && (!insHere || cs[0].before(ins[0].c)) {
				c, cs = cs[0], cs[1:]
			} else if insHere {
				c, ins = ins[0].c, ins[1:]
			} else {
				break
			}
			nb.c = append(nb.c, c)
			sum += c.p
		}
		for len(gone) > 0 && gone[0] == t {
			gone = gone[1:]
		}
		if len(nb.c) > n0 {
			nb.t = append(nb.t, t)
			nb.sum = append(nb.sum, sum)
			nb.off = append(nb.off, len(nb.c))
		}
	}
	nb.copyRun(old, i, len(old.t))
	tr.bk, tr.spare = tr.spare, tr.bk
	for _, v := range tr.moved {
		tr.ref[v] = tr.start[v]
		tr.movedAt[v] = -1
	}
	tr.moved = tr.moved[:0]
}

// finish returns the tracked schedule's finish time in O(Δ) for Δ moved
// tasks: the latest end among the moved tasks, or the last reference
// bucket still holding a contribution of an unmoved task when that is
// later. Every task's end is a breakpoint at or after its start, so the
// last such bucket is the latest unmoved end, and each bucket the walk
// passes holds only stale contributions, at most two per moved task.
func (tr *Tracker) finish() model.Time {
	var f model.Time
	for _, v := range tr.moved {
		f = max(f, tr.start[v]+tr.delays[v])
	}
	bk := &tr.bk
	for i := len(bk.t) - 1; i >= 0 && bk.t[i] > f; i-- {
		for _, c := range bk.c[bk.off[i]:bk.off[i+1]] {
			if tr.movedAt[c.task] < 0 {
				return bk.t[i]
			}
		}
	}
	return f
}

// materialize sweeps the reference breakpoints into merged segments
// exactly the way Build does: each breakpoint's cached sum is its single
// delta (base first at 0 and tau), the running power is the prefix sum
// of those deltas, and adjacent equal-power segments merge. The overlay
// must be empty.
func (tr *Tracker) materialize(segs []Segment) Profile {
	tr.maxP = negInf
	tr.minP = posInf
	tr.idxOK = false
	tr.refFreeOK = false
	tr.refSteps, tr.refTerms = 0, 0
	tau := tr.finish()
	if tau == 0 {
		return Profile{}
	}
	var cur float64
	prevT := model.Time(0)
	started := false
	flush := func(t0, t1 model.Time) {
		if t1 <= t0 || t0 >= tau {
			return
		}
		if t1 > tau {
			t1 = tau
		}
		if cur > tr.maxP {
			tr.maxP = cur
		}
		if cur < tr.minP {
			tr.minP = cur
		}
		if n := len(segs); n > 0 && segs[n-1].P == cur && segs[n-1].T1 == t0 {
			segs[n-1].T1 = t1
		} else {
			segs = append(segs, Segment{T0: t0, T1: t1, P: cur})
		}
	}
	step := func(t model.Time, bs float64, terms int) {
		if started {
			flush(prevT, t)
		}
		tr.refSteps++
		tr.refTerms = max(tr.refTerms, terms+1)
		cur += bs
		prevT = t
		started = true
	}
	bk := &tr.bk
	seen0 := false
	for i := 0; i < len(bk.t) && bk.t[i] < tau; i++ {
		if bk.t[i] == 0 {
			seen0 = true
		} else if !seen0 {
			// Build always has a breakpoint at 0 (the base load starts
			// there), even when no task does.
			step(0, tr.base, 0)
			seen0 = true
		}
		step(bk.t[i], bk.sum[i], bk.off[i+1]-bk.off[i])
	}
	if !seen0 {
		step(0, tr.base, 0)
	}
	// Build's final breakpoint is tau (where the base load ends); its
	// delta is never added to the running power, it only terminates the
	// last segment.
	flush(prevT, tau)
	return Profile{Segs: segs}
}
