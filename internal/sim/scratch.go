package sim

import (
	"math/rand"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/randsrc"
)

// runScratch is the per-worker reusable state of the run loop: the
// run RNG, the realized fault set, the replayer and its buffers, and
// the perturbed-problem copy. One scratch serves one goroutine for the
// lifetime of a campaign; nothing in it is shared.
type runScratch struct {
	rng *rand.Rand

	faults   runFaults
	replayer exec.Replayer

	// delayed is the reusable perturbed problem handed to the
	// replayer; taskBuf backs its task slice.
	delayed model.Problem
	taskBuf []model.Task

	// pending and revealed carry the residual state between a replay
	// and the replans that consume it.
	pending  []string
	revealed map[string]model.Time

	// idx memoizes TaskIndex for the current segment problem (keyed by
	// pointer — a campaign's shared nominal problem hits across runs).
	idxProb *model.Problem
	idx     map[string]int
}

func newRunScratch() *runScratch {
	return &runScratch{
		rng:      rand.New(new(randsrc.Source)), // seeded per run by seed
		revealed: make(map[string]model.Time),
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
// built in the scratch problem. Only the task slice is copied — the
// replay reads nothing else that the delay overlay changes
// (constraints alias p's).
func (sc *runScratch) delayedProblem(p *model.Problem, actual map[string]model.Time) *model.Problem {
	sc.taskBuf = append(sc.taskBuf[:0], p.Tasks...)
	sc.delayed = *p
	sc.delayed.Tasks = sc.taskBuf
	for i := range sc.delayed.Tasks {
		if d, ok := actual[sc.delayed.Tasks[i].Name]; ok && d > sc.delayed.Tasks[i].Delay {
			sc.delayed.Tasks[i].Delay = d
		}
	}
	return &sc.delayed
}

// taskIndex memoizes p.TaskIndex() for the current segment problem.
func (sc *runScratch) taskIndex(p *model.Problem) map[string]int {
	if sc.idxProb != p {
		sc.idxProb = p
		sc.idx = p.TaskIndex()
	}
	return sc.idx
}
