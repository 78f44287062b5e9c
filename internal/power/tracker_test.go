package power

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/schedule"
)

func randomInstance(rng *rand.Rand, n int) ([]model.Task, schedule.Schedule) {
	tasks := make([]model.Task, n)
	starts := make([]model.Time, n)
	for i := range tasks {
		tasks[i] = model.Task{
			Name:  fmt.Sprintf("t%d", i),
			Delay: 1 + rng.Intn(7),
			// Irrational-ish powers so floating-point accumulation
			// order differences would actually show up.
			Power: rng.Float64() * 13.7,
		}
		starts[i] = model.Time(rng.Intn(40))
	}
	return tasks, schedule.Schedule{Start: starts}
}

func profilesEqual(a, b Profile) bool {
	if len(a.Segs) == 0 && len(b.Segs) == 0 {
		return true
	}
	return reflect.DeepEqual(a.Segs, b.Segs)
}

// runEnd is the reference for RunEndAbove and RunEndBelow: the end of
// the interval of ivs (Spikes or Gaps of a Build profile) containing t,
// or t+1 when none does.
func runEnd(ivs []Interval, t model.Time) model.Time {
	for _, iv := range ivs {
		if iv.T0 <= t && t < iv.T1 {
			return iv.T1
		}
	}
	return t + 1
}

// checkIndexQueries compares the tracker's segment-index answers
// (ValidMax, FirstAbove, RunEndAbove, RunEndBelow) with walks over the
// segments of want, the Build profile of the same schedule. Thresholds
// are every segment power of want and one ulp either side — where a >
// versus >= slip would show — and query times are every segment start
// plus the finish time.
func checkIndexQueries(t *testing.T, label string, tr *Tracker, want Profile) {
	t.Helper()
	for _, seg := range want.Segs {
		for _, x := range []float64{seg.P, math.Nextafter(seg.P, math.Inf(-1)), math.Nextafter(seg.P, math.Inf(1))} {
			if got, w := tr.ValidMax(x), want.Valid(x); got != w {
				t.Fatalf("%s: ValidMax(%v) = %v, walk %v", label, x, got, w)
			}
			spikes, gaps := want.Spikes(x), want.Gaps(x)
			ft, fok := tr.FirstAbove(x)
			if fok != (len(spikes) > 0) || (fok && ft != spikes[0].T0) {
				t.Fatalf("%s: FirstAbove(%v) = (%d, %v), spikes %v", label, x, ft, fok, spikes)
			}
			for _, q := range want.Segs {
				for _, at := range []model.Time{q.T0, want.Duration()} {
					if got, w := tr.RunEndAbove(at, x), runEnd(spikes, at); got != w {
						t.Fatalf("%s: RunEndAbove(%d, %v) = %d, walk %d", label, at, x, got, w)
					}
					if got, w := tr.RunEndBelow(at, x), runEnd(gaps, at); got != w {
						t.Fatalf("%s: RunEndBelow(%d, %v) = %d, walk %d", label, at, x, got, w)
					}
				}
			}
		}
	}
}

// checkFresh requires tr's profile to be bit-identical to a Build of the
// same schedule, and its reference — breakpoint arrays, cached sums and
// the summary CertainlyRejects reads (refSteps, refTerms, maxP, minP) —
// to equal that of a tracker freshly built on the schedule.
func checkFresh(t *testing.T, label string, tr *Tracker, tasks []model.Task, s schedule.Schedule, base float64) {
	t.Helper()
	if got, want := tr.Profile(), Build(tasks, s, base); !profilesEqual(got, want) {
		t.Fatalf("%s: profile mismatch\n got %v\nwant %v", label, got, want)
	}
	fresh := NewTracker(tasks, s, base)
	fresh.Profile()
	if tr.refSteps != fresh.refSteps || tr.refTerms != fresh.refTerms || tr.maxP != fresh.maxP || tr.minP != fresh.minP {
		t.Fatalf("%s: reference summary (steps %d terms %d max %v min %v), fresh (%d %d %v %v)", label,
			tr.refSteps, tr.refTerms, tr.maxP, tr.minP, fresh.refSteps, fresh.refTerms, fresh.maxP, fresh.minP)
	}
	a, b := tr.bk, fresh.bk
	if !slices.Equal(a.t, b.t) || !slices.Equal(a.off, b.off) || !slices.Equal(a.c, b.c) || !slices.Equal(a.sum, b.sum) {
		t.Fatalf("%s: reference buckets differ from a fresh build\n got %v %v %v\nwant %v %v %v",
			label, a.t, a.off, a.sum, b.t, b.off, b.sum)
	}
}

// trackerMove picks a start for task v aimed at the overlay's corner
// cases: onto time 0, onto another task's start or end (an existing
// breakpoint, usually between other tasks in (task, kind) order), past
// the finish time (growing it), the latest-ending task moved to the
// front (emptying the finish bucket and shrinking the finish time), or
// anywhere.
func trackerMove(rng *rand.Rand, tasks []model.Task, s schedule.Schedule) (int, model.Time) {
	n := len(tasks)
	v := rng.Intn(n)
	tau := s.Finish(tasks)
	switch rng.Intn(6) {
	case 0:
		return v, 0
	case 1:
		return v, s.Start[rng.Intn(n)]
	case 2:
		w := rng.Intn(n)
		return v, max(0, s.Start[w]+tasks[w].Delay-rng.Intn(2)*tasks[v].Delay)
	case 3:
		return v, tau + model.Time(rng.Intn(3))
	case 4:
		for w := range tasks {
			if s.Start[w]+tasks[w].Delay == tau {
				return w, model.Time(rng.Intn(2))
			}
		}
	}
	return v, model.Time(rng.Intn(int(tau) + 2))
}

// TestTrackerMatchesBuild drives trackers through random interleavings
// of moves, partial undos (a subset of the moved tasks sent back to the
// reference), Profile calls and Resets — some onto rewritten delays and
// powers, as a heterogeneous scheduler makes between restarts — on
// random and adversarial instances. Every Profile must be bit-identical
// to a from-scratch Build, the reference must equal a fresh tracker's,
// and the segment-index queries must agree with walks over the Build
// profile.
func TestTrackerMatchesBuild(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		var tasks []model.Task
		var s schedule.Schedule
		var base float64
		if seed%2 == 0 {
			tasks, s = randomInstance(rng, n)
			if rng.Intn(2) == 0 {
				base = rng.Float64() * 3.3
			}
		} else {
			tasks, s, base = adversarialInstance(rng, n)
		}
		tr := NewTracker(tasks, s, base)
		checkFresh(t, fmt.Sprintf("seed %d initial", seed), tr, tasks, s, base)
		for step := 0; step < 120; step++ {
			label := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 5:
				v, at := trackerMove(rng, tasks, s)
				s.Start[v] = at
				tr.Move(v, at)
			case op < 7:
				for _, v := range append([]int(nil), tr.moved...) {
					if rng.Intn(2) == 0 {
						s.Start[v] = tr.ref[v]
						tr.Move(v, s.Start[v])
					}
				}
			case op < 9:
				checkFresh(t, label, tr, tasks, s, base)
				if step%4 == 0 {
					checkIndexQueries(t, label, tr, Build(tasks, s, base))
				}
			default:
				for k := rng.Intn(3); k > 0; k-- {
					v := rng.Intn(n)
					tasks[v].Delay = 1 + rng.Intn(5)
					if rng.Intn(2) == 0 {
						tasks[v].Power = rng.Float64() * 5.1
					}
				}
				for k := rng.Intn(4); k > 0; k-- {
					v, at := trackerMove(rng, tasks, s)
					s.Start[v] = at
				}
				tr.Reset(s)
				checkFresh(t, label+" reset", tr, tasks, s, base)
			}
		}
		checkFresh(t, fmt.Sprintf("seed %d final", seed), tr, tasks, s, base)
	}
}

// TestTrackerMoveNoop checks that moving a task onto its current start
// leaves the cached profile valid.
func TestTrackerMoveNoop(t *testing.T) {
	tasks := []model.Task{{Name: "a", Delay: 3, Power: 2.5}}
	s := schedule.Schedule{Start: []model.Time{4}}
	tr := NewTracker(tasks, s, 1)
	before := tr.Profile().String()
	tr.Move(0, 4)
	if after := tr.Profile().String(); after != before {
		t.Fatalf("no-op move changed profile: %s -> %s", before, after)
	}
}

// TestTrackerDerivedQuantities spot-checks that the quantities the
// schedulers actually branch on (At, Spikes, Gaps, Utilization,
// EnergyCost, and the segment-index queries) agree between tracker and
// Build profiles, including after moves that change the finish time tau
// and on adversarial instances with coincident breakpoints and powers
// summing to exact segment values.
func TestTrackerDerivedQuantities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tasks, s := randomInstance(rng, 9)
	base := 0.75
	tr := NewTracker(tasks, s, base)
	for move := 0; move < 40; move++ {
		v := rng.Intn(len(tasks))
		s.Start[v] = model.Time(rng.Intn(60))
		tr.Move(v, s.Start[v])
		got, want := tr.Profile(), Build(tasks, s, base)
		if got.Utilization(5) != want.Utilization(5) {
			t.Fatalf("move %d: utilization %v != %v", move, got.Utilization(5), want.Utilization(5))
		}
		if got.EnergyCost(5) != want.EnergyCost(5) {
			t.Fatalf("move %d: energy cost %v != %v", move, got.EnergyCost(5), want.EnergyCost(5))
		}
		if !reflect.DeepEqual(got.Spikes(10), want.Spikes(10)) || !reflect.DeepEqual(got.Gaps(5), want.Gaps(5)) {
			t.Fatalf("move %d: spikes/gaps diverge", move)
		}
		for q := model.Time(0); q < got.Duration(); q += 3 {
			if got.At(q) != want.At(q) {
				t.Fatalf("move %d: At(%d) %v != %v", move, q, got.At(q), want.At(q))
			}
		}
		checkIndexQueries(t, fmt.Sprintf("move %d", move), tr, want)
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tasks, s, base := adversarialInstance(rng, 1+rng.Intn(20))
		tr := NewTracker(tasks, s, base)
		for move := 0; move < 20; move++ {
			v := rng.Intn(len(tasks))
			s.Start[v] = s.Start[rng.Intn(len(tasks))] + model.Time(rng.Intn(3))
			tr.Move(v, s.Start[v])
			checkIndexQueries(t, fmt.Sprintf("adversarial seed %d move %d", seed, move), tr, Build(tasks, s, base))
		}
	}
}

// acceptFails is the gap-fill acceptance test CertainlyRejects
// certifies against, evaluated on a from-scratch Build profile.
func acceptFails(p Profile, pmax, pmin float64, tau model.Time, minU float64) bool {
	return !p.Valid(pmax) || p.Duration() > tau || !(p.Utilization(pmin) > minU)
}

// adversarialInstance draws tasks built to stress the rejection bound:
// non-dyadic powers (inexact in binary), a base that is sometimes huge
// relative to the task powers, and starts packed into a short window so
// breakpoints coincide and buckets hold many contributions.
func adversarialInstance(rng *rand.Rand, n int) ([]model.Task, schedule.Schedule, float64) {
	powers := []float64{0.1, 0.2, 0.3, 0.7, 1.1, 2.9, 1e-3}
	window := 2 + rng.Intn(30)
	tasks := make([]model.Task, n)
	starts := make([]model.Time, n)
	for i := range tasks {
		p := powers[rng.Intn(len(powers))]
		if rng.Intn(3) == 0 {
			p = rng.Float64() * 13.7
		}
		tasks[i] = model.Task{Name: fmt.Sprintf("t%d", i), Delay: 1 + rng.Intn(4), Power: p}
		starts[i] = model.Time(rng.Intn(window))
	}
	base := []float64{0, 0.3, 1e6, 12345.678}[rng.Intn(4)]
	return tasks, schedule.Schedule{Start: starts}, base
}

// TestCertainlyRejectsSound drives trackers through random and
// adversarial move sets and checks that every certified rejection is a
// rejection of the Build profile under the same thresholds, including
// thresholds set exactly at (and one ulp either side of) the moved
// schedule's own peak, utilization and finish — the near-ties where an
// unsound bound would show. After the moves are undone the tracker must
// be clean: Profile() equals Build bit for bit without materializing.
func TestCertainlyRejectsSound(t *testing.T) {
	certified, undecidedAccepts := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		tasks, s, base := adversarialInstance(rng, n)
		tr := NewTracker(tasks, s, base)
		ref := tr.Profile()
		refTau := ref.Duration()
		refPeak := ref.Peak()
		pmins := []float64{ref.Floor(), (ref.Floor() + refPeak) / 2, refPeak, refPeak + 0.1}
		mats := tr.Materializations()

		for trial := 0; trial < 8; trial++ {
			// Move a few tasks (sometimes many): later, earlier, or past
			// the finish time, sometimes onto another task's breakpoint.
			k := 1 + rng.Intn(3)
			if rng.Intn(8) == 0 {
				k = n
			}
			orig := append([]model.Time(nil), s.Start...)
			for j := 0; j < k; j++ {
				v := rng.Intn(n)
				switch rng.Intn(4) {
				case 0:
					s.Start[v] = s.Start[rng.Intn(n)]
				case 1:
					s.Start[v] = refTau + model.Time(rng.Intn(3)) // may grow tau
				default:
					s.Start[v] = model.Time(rng.Intn(int(refTau) + 1))
				}
				tr.Move(v, s.Start[v])
			}
			want := Build(tasks, s, base)
			peak, tau := want.Peak(), want.Duration()
			for _, pmin := range pmins {
				if !(pmin > 0) {
					continue
				}
				u := want.Utilization(pmin)
				uRef := ref.Utilization(pmin)
				for _, pmax := range []float64{peak, math.Nextafter(peak, math.Inf(-1)), math.Nextafter(peak, math.Inf(1)), refPeak, 1e300} {
					for _, minU := range []float64{u, math.Nextafter(u, math.Inf(-1)), math.Nextafter(u, math.Inf(1)),
						uRef, uRef + 1e-9, u - 1e-9, -1} {
						for _, tauMax := range []model.Time{refTau, tau, tau - 1} {
							fails := acceptFails(want, pmax, pmin, tauMax, minU)
							if tr.CertainlyRejects(pmax, pmin, tauMax, minU) {
								certified++
								if !fails {
									t.Fatalf("seed %d trial %d: certified rejection of an accepted move "+
										"(pmax %v pmin %v tau %d minU %v; peak %v util %v finish %d)",
										seed, trial, pmax, pmin, tauMax, minU, peak, u, tau)
								}
							} else if !fails {
								undecidedAccepts++
							}
						}
					}
				}
			}
			if got := tr.Materializations(); got != mats {
				t.Fatalf("seed %d trial %d: CertainlyRejects materialized (%d -> %d)", seed, trial, mats, got)
			}
			// Undo in random order; the tracker must come back clean.
			for _, j := range rng.Perm(n) {
				s.Start[j] = orig[j]
				tr.Move(j, orig[j])
			}
			if got, want := tr.Profile(), Build(tasks, s, base); !profilesEqual(got, want) {
				t.Fatalf("seed %d trial %d: post-undo profile mismatch\n got %v\nwant %v", seed, trial, got, want)
			}
			if got := tr.Materializations(); got != mats {
				t.Fatalf("seed %d trial %d: undo re-materialized (%d -> %d)", seed, trial, mats, got)
			}
		}
	}
	if certified == 0 || undecidedAccepts == 0 {
		t.Fatalf("vacuous run: %d certified rejections, %d accepted probes", certified, undecidedAccepts)
	}
}

// TestCertainlyRejectsCertifiesLocalMoves checks the bound is tight
// enough to be useful: on a long schedule, moving one task away from
// a below-pmin stretch strictly loses utilization and is certified
// without materializing, and a move that grows the finish time is
// certified from the finish alone.
func TestCertainlyRejectsCertifiesLocalMoves(t *testing.T) {
	const n = 2000
	tasks := make([]model.Task, n)
	starts := make([]model.Time, n)
	for i := range tasks {
		tasks[i] = model.Task{Name: fmt.Sprintf("t%d", i), Delay: 3, Power: 0.1 * float64(1+i%7)}
		starts[i] = model.Time(2 * i)
	}
	s := schedule.Schedule{Start: starts}
	tr := NewTracker(tasks, s, 0.3)
	ref := tr.Profile()
	pmin, tau := 0.9, ref.Duration()
	minU := ref.Utilization(pmin) + 1e-9
	mats := tr.Materializations()

	tr.Move(10, 11) // overlaps its neighbour more: less of the profile below pmin is filled
	if !tr.CertainlyRejects(1e9, pmin, tau, minU) {
		t.Fatal("local utilization loss not certified")
	}
	if !acceptFails(Build(tasks, schedule.Schedule{Start: tr.start}, 0.3), 1e9, pmin, tau, minU) {
		t.Fatal("test premise: the move should be rejected")
	}
	tr.Move(10, 20)
	tr.Move(n-1, tau) // grows tau
	if !tr.CertainlyRejects(1e9, pmin, tau, minU) {
		t.Fatal("finish-time growth not certified")
	}
	tr.Move(n-1, starts[n-1])
	tr.Move(10, starts[10])
	if tr.CertainlyRejects(1e9, pmin, tau, minU) {
		t.Fatal("clean tracker certified a rejection")
	}
	if got := tr.Materializations(); got != mats {
		t.Fatalf("materialized during certification/undo: %d -> %d", mats, got)
	}
}

// TestCertainlyRejectsAllocFree pins the probe path's allocation
// behaviour: once the tracker's buffers are warm, a move, its
// certification and its undo allocate nothing.
func TestCertainlyRejectsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tasks, s := randomInstance(rng, 200)
	tr := NewTracker(tasks, s, 0.5)
	ref := tr.Profile()
	pmin := ref.Peak() / 2
	minU := ref.Utilization(pmin) + 1e-9
	tau := ref.Duration()
	probe := func() {
		for v := 0; v < 20; v++ {
			tr.Move(v, s.Start[v]+1)
			tr.Move(v+20, s.Start[v+20]+2)
			tr.CertainlyRejects(ref.Peak(), pmin, tau, minU)
			tr.Move(v+20, s.Start[v+20])
			tr.Move(v, s.Start[v])
		}
	}
	probe()
	if avg := testing.AllocsPerRun(10, probe); avg != 0 {
		t.Fatalf("warm probe cycle allocates %.1f times", avg)
	}
}

// TestTrackerProbeAllocFree pins the overlay's allocation behaviour:
// once the tracker's buffers are warm, a move, its undo and a Profile
// allocate nothing, and neither does a move that is materialized (its
// fold into the reference) and then undone and materialized again.
func TestTrackerProbeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tasks, s := randomInstance(rng, 300)
	tr := NewTracker(tasks, s, 0.5)
	tr.Profile()
	cycle := func() {
		for v := 0; v < 30; v++ {
			tr.Move(v, s.Start[v]+3)
			tr.Move(v, s.Start[v])
			tr.Profile()
			tr.Move(v, s.Start[v]+3)
			tr.Profile()
			tr.Move(v, s.Start[v])
			tr.Profile()
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("warm move/undo/profile cycle allocates %.1f times", avg)
	}
}
