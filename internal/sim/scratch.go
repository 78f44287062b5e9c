package sim

import (
	"math/rand"

	"repro/internal/model"
	"repro/internal/randsrc"
	"repro/internal/schedule"
)

// runScratch is the per-worker reusable state of the run loop: the
// run RNG, the realized fault set, the perturbed-problem copy, the
// residual state between a replay and its replans, and the residual
// segments' index tables. One scratch serves one goroutine for the
// lifetime of a campaign; nothing in it is shared.
type runScratch struct {
	rng *rand.Rand

	faults runFaults

	// delayed is the reusable perturbed problem handed to the replay;
	// taskBuf backs its task slice.
	delayed model.Problem
	taskBuf []model.Task

	// pending and inFlight mark, by segment task index, the tasks still
	// pending when the segment's replay stopped and those of them that
	// had started.
	pending, inFlight []bool

	// segs back the residual segments' tables: two, so a residual is
	// built from its parent's while the parent's stay readable.
	segs [2]segment
}

func newRunScratch() *runScratch {
	return &runScratch{
		rng: rand.New(new(randsrc.Source)), // seeded per run by seed
	}
}

// seed re-seeds the scratch RNG for a run and returns it. Its source
// is math/rand's own stream (randsrc only seeds it faster), and the run
// loop consumes only Float64 and Intn — both drawn straight from the
// source — so the re-seeded RNG reproduces a fresh
// rand.New(rand.NewSource(seed)) draw-for-draw.
func (sc *runScratch) seed(seed int64) *rand.Rand {
	sc.rng.Seed(seed)
	return sc.rng
}

// delayedProblem returns p with the run's realized delays applied,
// built in the scratch problem; orig is the segment's map to the
// nominal tasks actual is indexed by. Only the task slice is copied —
// the replay reads nothing else that the delay overlay changes
// (constraints alias p's).
func (sc *runScratch) delayedProblem(p *model.Problem, orig []int, actual []model.Time) *model.Problem {
	sc.taskBuf = append(sc.taskBuf[:0], p.Tasks...)
	sc.delayed = *p
	sc.delayed.Tasks = sc.taskBuf
	for i := range sc.delayed.Tasks {
		if d := actual[orig[i]]; d > sc.delayed.Tasks[i].Delay {
			sc.delayed.Tasks[i].Delay = d
		}
	}
	return &sc.delayed
}

// split marks the tasks of a segment replayed on d (the segment's tasks
// on their realized delays) that are pending at the instant stop: in
// flight (started before it, finishing after it) or not started
// (starting at or after it). It returns how many are pending.
func (sc *runScratch) split(d *model.Problem, s schedule.Schedule, stop model.Time) int {
	sc.pending, sc.inFlight = sc.pending[:0], sc.inFlight[:0]
	n := 0
	for i := range d.Tasks {
		started := s.Start[i] < stop
		pend := !started || s.Start[i]+d.Tasks[i].Delay > stop
		sc.pending = append(sc.pending, pend)
		sc.inFlight = append(sc.inFlight, pend && started)
		if pend {
			n++
		}
	}
	return n
}
