package sched

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/spec"
)

// stabBrute is the reference answer of gapIndex.stab over a model of
// each task's (fin, reach), sorted by index.
func stabBrute(fin, reach []model.Time, t model.Time) []int {
	out := []int{}
	for v := range fin {
		if fin[v] <= t && t <= reach[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestGapIndexStabRandom interleaves rebuilds, single-task placements
// and stabbing queries on the bare index and checks every answer
// against brute force. Placements move tasks between slots, push
// finishes past the last slot the rebuild sized for (they share that
// slot, also under a coarse shift) and saturate InfiniteSlack reaches
// to +inf.
func TestGapIndexStabRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		horizon := model.Time(8 + rng.Intn(60))
		if seed%4 == 3 {
			horizon = model.Time(1000 + rng.Intn(5000)) // forces shift > 0
		}
		fin := make([]model.Time, n)
		reach := make([]model.Time, n)
		draw := func(v int, span model.Time) {
			fin[v] = model.Time(rng.Intn(span + 1))
			switch rng.Intn(4) {
			case 0:
				reach[v] = reachOf(fin[v], schedule.InfiniteSlack)
			case 1:
				reach[v] = reachOf(fin[v], model.Time(-rng.Intn(3))) // no reach at all
			default:
				reach[v] = reachOf(fin[v], model.Time(rng.Intn(int(horizon)/2+2)))
			}
		}
		x := newGapIndex(n)
		rebuild := func() {
			var maxFin model.Time
			for v := range fin {
				draw(v, horizon)
				x.ent[v].fin, x.ent[v].reach = fin[v], reach[v]
				maxFin = max(maxFin, fin[v])
			}
			x.build(maxFin)
		}
		rebuild()
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r == 0:
				rebuild()
			case r < 5:
				v := rng.Intn(n)
				span := horizon
				if rng.Intn(8) == 0 {
					span = 4 * horizon // past the slots the last rebuild sized for
				}
				draw(v, span)
				x.place(v, fin[v], reach[v])
			default:
				at := model.Time(rng.Intn(int(4*horizon)+2)) - 1
				got := x.stab(at, nil)
				slices.Sort(got)
				if want := stabBrute(fin, reach, at); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: stab(%d) = %v, brute force %v", seed, op, at, got, want)
				}
			}
			for i := x.size - 1; i >= 1; i-- {
				if x.tree[i] != max(x.tree[2*i], x.tree[2*i+1]) {
					t.Fatalf("seed %d op %d: tree node %d holds %d, children max %d", seed, op, i, x.tree[i], max(x.tree[2*i], x.tree[2*i+1]))
				}
			}
		}
	}
}

// TestGapIndexFollowsMovesRandom drives the index through its only
// feed, slack invalidation: random gap-fill style delays,
// some kept and some rolled back, lock edges and wholesale
// invalidations, with gapCandidates checked against the full scan at
// random gap times in between.
func TestGapIndexFollowsMovesRandom(t *testing.T) {
	answers := 0
	for seed := int64(0); seed < 30; seed++ {
		c, err := schedule.Compile(genProblem(seed))
		if err != nil {
			t.Fatal(err)
		}
		st := newState(context.Background(), c, Options{}, nil)
		st.reset(0)
		sigma, err := st.timing()
		if err != nil {
			continue
		}
		st.syncProfile(sigma)
		rng := rand.New(rand.NewSource(seed))
		n := c.NumTasks()
		horizon := sigma.Finish(st.tasks)
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(12); {
			case r == 0:
				st.dirtySlackAll()
			case r == 1:
				v := rng.Intn(n)
				st.lock(v, sigma.Start[v])
			case r < 6:
				v := rng.Intn(n)
				cp := st.g.Mark()
				// Up to four times the horizon: some finishes land past
				// the last slot the rebuild sized for.
				changed, ok := st.delay(v, sigma.Start[v]+1+rng.Intn(int(3*horizon)+1))
				if ok && rng.Intn(2) == 0 {
					st.g.Rollback(cp)
					st.undoDelay(changed)
				}
			default:
				at := model.Time(rng.Intn(int(4*horizon) + 1))
				got := slices.Clone(st.gapCandidates(sigma, at))
				if want := gapCandidatesScan(st, sigma, at); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: candidates at %d are %v, full scan %v", seed, op, at, got, want)
				}
				if len(got) > 0 {
					answers++
				}
			}
		}
	}
	if answers < 100 {
		t.Fatalf("too weak: %d non-empty answers", answers)
	}
}

// tieSpec has four tasks that tie on (power, finish) — integer powers,
// each alone on its resource, all finishing at 2 with infinite slack —
// and a long task that keeps the schedule running past the gap they
// can fill.
const tieSpec = `problem ties
pmax 100
pmin 30
task a A 2 5
task b B 2 5
task c C 2 5
task d D 2 5
task z Z 10 1
`

// TestGapCandidatesTieOrder pins the index key of the candidate order:
// after moves re-link tasks into their finish bucket out of index
// order, candidates tied on (power, finish) must still come out in
// ascending index order.
func TestGapCandidatesTieOrder(t *testing.T) {
	p, err := spec.Parse(strings.NewReader(tieSpec))
	if err != nil {
		t.Fatal(err)
	}
	c, err := schedule.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(context.Background(), c, Options{}, nil)
	st.reset(0)
	sigma, err := st.maxPower()
	if err != nil {
		t.Fatal(err)
	}
	st.syncProfile(sigma)
	st.dirtySlackAll()
	want := []int{0, 1, 2, 3}
	if got := st.gapCandidates(sigma, 2); !slices.Equal(got, want) {
		t.Fatalf("fresh index: candidates %v, want %v", got, want)
	}
	// Move c and then b out of the finish-2 bucket and back, querying in
	// between so the index re-places them at the front of the bucket.
	for _, v := range []int{2, 1} {
		cp := st.g.Mark()
		changed, ok := st.delay(v, 1)
		if !ok {
			t.Fatalf("delaying task %d failed", v)
		}
		st.gapCandidates(sigma, 3)
		st.g.Rollback(cp)
		st.undoDelay(changed)
	}
	var got []int
	checks, auditErr := Audit(func() { got = slices.Clone(st.gapCandidates(sigma, 2)) })
	if auditErr != nil || checks["gapcands"] != 1 {
		t.Fatalf("audit: %v (checks %v)", auditErr, checks)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after re-placement: candidates %v, want %v", got, want)
	}
	var bucket []int
	for v := st.gi.head[st.gi.slotOf(2)]; v >= 0; v = st.gi.ent[v].next {
		bucket = append(bucket, v)
	}
	if slices.IsSorted(bucket) {
		t.Fatalf("bucket %v is in index order: the test no longer exercises the index key", bucket)
	}
	if st.gi.ent[0].reach != math.MaxInt {
		t.Fatalf("task a's reach %d, want +inf (InfiniteSlack)", st.gi.ent[0].reach)
	}
}
