package power

import (
	"math"

	"repro/internal/model"
	"repro/internal/schedule"
)

// Tracker maintains the power profile of a schedule incrementally: when
// one task moves, only the four affected breakpoints (old start/end, new
// start/end) are updated instead of rebuilding the whole profile with
// Build. This is the scheduler's hottest data structure — spike fixing,
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
	// — materialize's finish-time scan and Move's breakpoint updates —
	// read these dense 8-byte entries instead of copying ~88-byte
	// model.Task values (runtime.duffcopy on profiles).
	delays []model.Time
	powers []float64
	// buckets holds, per breakpoint time, the ordered task
	// contributions (base is handled virtually at 0 and tau, which
	// moves as the finish time changes). Sorted by time.
	buckets []bucket
	// free recycles the contribution slices of emptied buckets so that
	// steady-state Move/Reset churn allocates nothing once the slices
	// have grown to their working sizes.
	free [][]contrib
	// prof is the materialization of the reference schedule ref (when
	// refOK). moved lists the tasks whose tracked start differs from
	// their reference start, movedAt[v] being v's position in moved or
	// -1. Bucket contents are canonical in (task, kind) order, so once
	// every moved task is back at its reference start the buckets — and
	// hence a materialization, its peak/floor and its segment index — are
	// bit-identical to the reference: an undo leaves the tracker clean
	// without re-materializing.
	prof    Profile
	ref     []model.Time
	moved   []int
	movedAt []int
	refOK   bool
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
	task int
	kind int
	p    float64 // signed contribution
}

type bucket struct {
	t  model.Time
	cs []contrib
}

// NewTracker builds a tracker for the given tasks positioned at s.
func NewTracker(tasks []model.Task, s schedule.Schedule, base float64) *Tracker {
	tr := &Tracker{
		tasks:   tasks,
		base:    base,
		start:   make([]model.Time, len(tasks)),
		delays:  make([]model.Time, len(tasks)),
		powers:  make([]float64, len(tasks)),
		ref:     make([]model.Time, len(tasks)),
		movedAt: make([]int, len(tasks)),
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
// view's effective delays and powers between restarts.
func (tr *Tracker) Reset(s schedule.Schedule) {
	copy(tr.start, s.Start)
	for i := range tr.buckets {
		tr.recycle(tr.buckets[i].cs)
		tr.buckets[i].cs = nil
	}
	tr.buckets = tr.buckets[:0]
	tr.absSum = math.Abs(tr.base)
	for v := range tr.tasks {
		tr.delays[v] = tr.tasks[v].Delay
		tr.powers[v] = tr.tasks[v].Power
		tr.absSum += 2 * math.Abs(tr.powers[v])
	}
	for v := range tr.delays {
		tr.add(tr.start[v], v, kindStart, tr.powers[v])
		tr.add(tr.start[v]+tr.delays[v], v, kindEnd, -tr.powers[v])
	}
	copy(tr.ref, tr.start)
	for _, v := range tr.moved {
		tr.movedAt[v] = -1
	}
	tr.moved = tr.moved[:0]
	tr.refOK = false
}

// Move repositions task v to start at s, updating the affected
// breakpoints. Cost is O(log B) to locate each breakpoint plus the
// slice splice, independent of how the rest of the schedule looks.
func (tr *Tracker) Move(v int, s model.Time) {
	if s == tr.start[v] {
		return
	}
	d, p := tr.delays[v], tr.powers[v]
	old := tr.start[v]
	tr.remove(old, v, kindStart)
	tr.remove(old+d, v, kindEnd)
	tr.start[v] = s
	tr.add(s, v, kindStart, p)
	tr.add(s+d, v, kindEnd, -p)
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
	tr.prof = tr.materialize(tr.prof.Segs[:0])
	tr.materializations++
	for _, v := range tr.moved {
		tr.ref[v] = tr.start[v]
		tr.movedAt[v] = -1
	}
	tr.moved = tr.moved[:0]
	tr.refOK = true
	return tr.prof
}

// Materializations returns how many times the tracker has materialized
// a profile since it was created.
func (tr *Tracker) Materializations() int { return tr.materializations }

// bucketIdx returns the position of time t in the bucket list and
// whether a bucket at exactly t exists.
func (tr *Tracker) bucketIdx(t model.Time) (int, bool) {
	lo, hi := 0, len(tr.buckets)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.buckets[mid].t < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tr.buckets) && tr.buckets[lo].t == t
}

// add inserts the contribution of (task, kind) at time t, keeping the
// bucket's contributions ordered the way Build accumulates them: by
// task index, start before end.
func (tr *Tracker) add(t model.Time, task, kind int, p float64) {
	i, ok := tr.bucketIdx(t)
	if !ok {
		tr.buckets = append(tr.buckets, bucket{})
		copy(tr.buckets[i+1:], tr.buckets[i:])
		tr.buckets[i] = bucket{t: t, cs: tr.grab()}
	}
	b := &tr.buckets[i]
	j := len(b.cs)
	for j > 0 {
		c := b.cs[j-1]
		if c.task < task || (c.task == task && c.kind < kind) {
			break
		}
		j--
	}
	b.cs = append(b.cs, contrib{})
	copy(b.cs[j+1:], b.cs[j:])
	b.cs[j] = contrib{task: task, kind: kind, p: p}
}

// recycle returns a bucket's contribution slice to the freelist.
func (tr *Tracker) recycle(cs []contrib) {
	if cap(cs) > 0 {
		tr.free = append(tr.free, cs[:0])
	}
}

// grab pops a recycled contribution slice, or returns nil so the first
// append sizes a fresh one.
func (tr *Tracker) grab() []contrib {
	n := len(tr.free)
	if n == 0 {
		return nil
	}
	cs := tr.free[n-1]
	tr.free[n-1] = nil
	tr.free = tr.free[:n-1]
	return cs
}

// remove deletes the contribution of (task, kind) at time t. Buckets
// left without contributors are removed entirely, matching Build, which
// only creates breakpoints for times some task currently touches.
func (tr *Tracker) remove(t model.Time, task, kind int) {
	i, ok := tr.bucketIdx(t)
	if !ok {
		panic("power: tracker removal at unknown breakpoint")
	}
	b := &tr.buckets[i]
	for j, c := range b.cs {
		if c.task == task && c.kind == kind {
			b.cs = append(b.cs[:j], b.cs[j+1:]...)
			if len(b.cs) == 0 {
				tr.recycle(b.cs)
				tr.buckets = append(tr.buckets[:i], tr.buckets[i+1:]...)
			}
			return
		}
	}
	panic("power: tracker removal of unknown contribution")
}

// materialize sweeps the breakpoints into merged segments exactly the
// way Build does: each breakpoint's contributions are summed into a
// single delta (base first at 0 and tau), the running power is the
// prefix sum of those deltas, and adjacent equal-power segments merge.
func (tr *Tracker) materialize(segs []Segment) Profile {
	tr.maxP = negInf
	tr.minP = posInf
	tr.idxOK = false
	tr.refFreeOK = false
	tr.refSteps, tr.refTerms = 0, 0
	// The finish time is the largest breakpoint: every task's end is a
	// breakpoint at start+delay, and any breakpoint is a start or end
	// bounded by some end, so max(breakpoint) == max(start+delay). The
	// bucket list is time-ordered, making this O(1) instead of an O(n)
	// scan over the task set per materialization.
	var tau model.Time
	if len(tr.buckets) > 0 {
		tau = tr.buckets[len(tr.buckets)-1].t
	}
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
	step := func(t model.Time, bs float64, cs []contrib) {
		for _, c := range cs {
			bs += c.p
		}
		if started {
			flush(prevT, t)
		}
		tr.refSteps++
		tr.refTerms = max(tr.refTerms, len(cs)+1)
		cur += bs
		prevT = t
		started = true
	}
	seen0 := false
	for i := 0; i < len(tr.buckets) && tr.buckets[i].t < tau; i++ {
		b := tr.buckets[i]
		var bs float64
		if b.t == 0 {
			bs = tr.base
			seen0 = true
		} else if !seen0 {
			// Build always has a breakpoint at 0 (the base load starts
			// there), even when no task does.
			step(0, tr.base, nil)
			seen0 = true
		}
		step(b.t, bs, b.cs)
	}
	if !seen0 {
		step(0, tr.base, nil)
	}
	// Build's final breakpoint is tau (where the base load ends); its
	// delta is never added to the running power, it only terminates the
	// last segment.
	flush(prevT, tau)
	return Profile{Segs: segs}
}
