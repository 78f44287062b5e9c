// Package sched implements the paper's three power-aware scheduling
// algorithms as an incremental pipeline (paper section 5):
//
//  1. TimingScheduler (Fig. 3): a backtracking serialization search over
//     topological orderings of the constraint graph that produces a
//     time-valid schedule whenever one exists.
//  2. MaxPowerScheduler (Fig. 4): removes power spikes from a time-valid
//     schedule with slack-based task delaying, lock edges, and
//     backtracking, yielding a (power-)valid schedule.
//  3. MinPowerScheduler (Fig. 6): best-effort fills power gaps by
//     reordering tasks within their slacks, scanning the schedule
//     repeatedly under multiple heuristic orders and keeping the best
//     result, to maximize min-power utilization (equivalently, minimize
//     the energy cost drawn from non-free sources) at unchanged
//     performance.
//
// All graph mutation is journaled: every heuristic step that fails is
// rolled back exactly, mirroring the pseudocode's "undo changes to G
// since step B".
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/randsrc"
	"repro/internal/schedule"
)

// ErrInfeasible is wrapped by errors reporting that no schedule can
// satisfy the constraints (a positive cycle, or an unremovable spike).
var ErrInfeasible = errors.New("sched: infeasible")

// ScanOrder selects the order in which the min-power scheduler visits
// power gaps during one scan (paper section 5.3: "incremental order,
// reverse order, or random order").
type ScanOrder int

const (
	// ScanForward visits gaps in increasing time order.
	ScanForward ScanOrder = iota
	// ScanReverse visits gaps in decreasing time order.
	ScanReverse
	// ScanRandom visits gaps in a seeded-random order.
	ScanRandom
)

func (o ScanOrder) String() string {
	switch o {
	case ScanForward:
		return "forward"
	case ScanReverse:
		return "reverse"
	case ScanRandom:
		return "random"
	}
	return fmt.Sprintf("ScanOrder(%d)", int(o))
}

// SlotChoice selects the alternative time slot tried when moving a task
// into a power gap (paper section 5.3: "starting v at t, finishing v at
// the end of the power gap beginning at t, or a randomly chosen slot").
type SlotChoice int

const (
	// SlotStartAtGap starts the moved task exactly at the gap time t.
	SlotStartAtGap SlotChoice = iota
	// SlotFinishAtGapEnd finishes the moved task at the end of the gap.
	SlotFinishAtGapEnd
	// SlotRandom picks a seeded-random slot keeping the task active at t.
	SlotRandom
)

func (o SlotChoice) String() string {
	switch o {
	case SlotStartAtGap:
		return "start-at-gap"
	case SlotFinishAtGapEnd:
		return "finish-at-gap-end"
	case SlotRandom:
		return "random-slot"
	}
	return fmt.Sprintf("SlotChoice(%d)", int(o))
}

// Options tunes the schedulers. The zero value selects sensible
// defaults via (Options).withDefaults.
type Options struct {
	// Seed feeds the deterministic RNG used by random heuristics.
	Seed int64
	// MaxBacktracks bounds the timing scheduler's search (default 20000).
	MaxBacktracks int
	// MaxSpikeRounds bounds spike-elimination iterations (default 10000).
	MaxSpikeRounds int
	// MaxScans bounds min-power scans per heuristic combination
	// (default 10).
	MaxScans int
	// ScanOrders lists the gap-visit orders tried; the best outcome
	// wins (default: forward, reverse, random).
	ScanOrders []ScanOrder
	// SlotChoices lists the slot heuristics tried per scan order
	// (default: start-at-gap, finish-at-gap-end).
	SlotChoices []SlotChoice
	// DisableLocks turns off the lock-the-remaining-tasks heuristic of
	// the max-power scheduler (for ablation).
	DisableLocks bool
	// Restarts runs the whole pipeline this many times with perturbed
	// timing-candidate orders and keeps the best outcome (shortest
	// finish, then lowest energy cost). Different serialization orders
	// explore different regions of the partial-order space the paper's
	// single greedy pass cannot reach. Default 1 (no restarts).
	Restarts int
	// Workers bounds how many restarts run concurrently (default
	// GOMAXPROCS, capped by Restarts). The reduction over restart
	// outcomes is a total order whose final tie-break is the restart
	// index, so every Workers value — including 1 — produces
	// byte-identical schedules, profiles, and stats; the option trades
	// wall-clock time only.
	Workers int
	// Compact enables the left-shift pass between max-power and
	// min-power scheduling: spike elimination only pushes tasks later,
	// and compaction reclaims idle time it strands, shrinking the
	// finish time when possible (an extension beyond the paper).
	Compact bool
}

func (o Options) withDefaults() Options {
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = 20000
	}
	if o.MaxSpikeRounds == 0 {
		o.MaxSpikeRounds = 10000
	}
	if o.MaxScans == 0 {
		o.MaxScans = 10
	}
	if len(o.ScanOrders) == 0 {
		o.ScanOrders = []ScanOrder{ScanForward, ScanReverse, ScanRandom}
	}
	if len(o.SlotChoices) == 0 {
		o.SlotChoices = []SlotChoice{SlotStartAtGap, SlotFinishAtGapEnd}
	}
	return o
}

// Stats counts the work the heuristics performed.
type Stats struct {
	Backtracks  int // timing-search and spike-fix rollbacks
	SpikeRounds int // spike-elimination iterations
	Scans       int // min-power scans across all heuristic combos
	Moves       int // accepted gap-filling moves
	Rejected    int // attempted gap-filling moves rolled back
}

// Result is the outcome of a scheduling stage.
type Result struct {
	// Compiled is the lowered problem the schedule refers to.
	Compiled *schedule.Compiled
	// Schedule holds the computed start times.
	Schedule schedule.Schedule
	// Profile is the schedule's power profile (including base power).
	Profile power.Profile
	// Stats describes the heuristic effort expended.
	Stats Stats
	// Tasks is the effective task view the schedule refers to: for a
	// heterogeneous problem, each task carries the delay and power of
	// its chosen machine and DVS level; for a degenerate problem it is
	// exactly Compiled.Prob.Tasks.
	Tasks []model.Task
	// Assignment records the chosen (machine, level) per task; nil for
	// a degenerate problem.
	Assignment model.Assignment
}

// Finish returns the schedule's finish time tau.
func (r *Result) Finish() model.Time { return r.Schedule.Finish(r.Tasks) }

// EffectiveProblem returns the resolved problem the schedule executes,
// the one task view every consumer downstream of the scheduler reads.
// For the degenerate case it is the original problem (no copy —
// byte-level identity for every downstream renderer). For a
// heterogeneous one it is a clone in which each task carries the
// delay and power of its one chosen level, is pinned to its chosen
// machine, and every machine is unit-rated, so the view allows exactly
// one assignment (verify.Check derives it) and scheduling the view
// again reproduces its delays and powers instead of scaling them twice.
func (r *Result) EffectiveProblem() *model.Problem {
	if !r.Compiled.Hetero {
		return r.Compiled.Prob
	}
	q := r.Compiled.Prob.Clone()
	for i := range q.Machines {
		q.Machines[i].Speed, q.Machines[i].PowerScale = 1, 1
	}
	for i := range q.Tasks {
		q.Tasks[i].Delay = r.Tasks[i].Delay
		q.Tasks[i].Power = r.Tasks[i].Power
		q.Tasks[i].Levels = nil
		if r.Assignment != nil && r.Assignment[i].Machine >= 0 {
			q.Tasks[i].Machine = q.Machines[r.Assignment[i].Machine].Name
		}
	}
	return q
}

// EnergyCost returns Ec_sigma(Pmin) for the problem's Pmin.
func (r *Result) EnergyCost() float64 { return r.Profile.EnergyCost(r.Compiled.Prob.Pmin) }

// Utilization returns rho_sigma(Pmin) for the problem's Pmin.
func (r *Result) Utilization() float64 { return r.Profile.Utilization(r.Compiled.Prob.Pmin) }

// Peak returns the maximum of the power profile.
func (r *Result) Peak() float64 { return r.Profile.Peak() }

// stage selects how much of the pipeline to run.
type stage int

const (
	stageTiming stage = iota
	stageMaxPower
	stageMinPower
)

// Timing runs only the timing scheduler, returning a time-valid
// schedule that ignores power constraints (paper Fig. 3).
func Timing(p *model.Problem, opts Options) (*Result, error) {
	return runPipeline(context.Background(), p, opts, stageTiming)
}

// TimingCtx is Timing under a context: the search aborts with the
// context's error (within one cancellation-check interval) when ctx is
// canceled or its deadline passes.
func TimingCtx(ctx context.Context, p *model.Problem, opts Options) (*Result, error) {
	return runPipeline(ctx, p, opts, stageTiming)
}

// MaxPower runs the timing scheduler followed by max-power spike
// elimination, returning a valid schedule (paper Fig. 4).
func MaxPower(p *model.Problem, opts Options) (*Result, error) {
	return runPipeline(context.Background(), p, opts, stageMaxPower)
}

// MaxPowerCtx is MaxPower under a context (see TimingCtx).
func MaxPowerCtx(ctx context.Context, p *model.Problem, opts Options) (*Result, error) {
	return runPipeline(ctx, p, opts, stageMaxPower)
}

// MinPower runs the full pipeline: timing, max-power, then best-effort
// min-power gap filling (paper Fig. 6). This is the power-aware
// scheduler's main entry point.
func MinPower(p *model.Problem, opts Options) (*Result, error) {
	return runPipeline(context.Background(), p, opts, stageMinPower)
}

// MinPowerCtx is MinPower under a context (see TimingCtx). A canceled
// run never returns a partial schedule: the result is the context's
// error, so callers cannot mistake a half-optimized schedule for the
// deterministic full-pipeline outcome.
func MinPowerCtx(ctx context.Context, p *model.Problem, opts Options) (*Result, error) {
	return runPipeline(ctx, p, opts, stageMinPower)
}

// runPipeline executes the pipeline up to the requested stage, once per
// restart, and keeps the best successful outcome under a total order:
// shortest finish time first, then lowest energy cost, then lowest
// restart index. A restart that fails is skipped; the call fails only
// when every restart does (with the lowest-index restart's error).
// Cancellation aborts the whole call, even when earlier restarts
// already produced a result: the best-of-fewer-restarts schedule
// differs from the deterministic full run, and serving it would poison
// content-addressed caches.
//
// Restarts are fanned across up to Options.Workers goroutines. Because
// the reduction is a total order (the restart index breaks every tie)
// and each restart is a deterministic function of its index, the winner
// is identical to the sequential run regardless of completion order.
// Workers additionally share an incumbent bound — the best (finish,
// energy) published so far — and abandon a restart right after its
// timing stage when that stage's finish already exceeds the incumbent's
// strictly: the later stages only ever delay tasks (compaction cannot
// go below the timing graph's longest path), so such a restart provably
// loses the reduction no matter when the incumbent arrived.
func runPipeline(ctx context.Context, p *model.Problem, opts Options, upTo stage) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: pipeline aborted: %w", err)
	}
	c, err := schedule.Compile(p)
	if err != nil {
		return nil, err // structural problem error: no restart helps
	}
	restarts := opts.Restarts
	if restarts < 1 {
		restarts = 1
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > restarts {
		workers = restarts
	}
	var inc *atomic.Pointer[incumbent]
	if restarts > 1 {
		inc = new(atomic.Pointer[incumbent])
	}

	var (
		next    atomic.Int64 // next restart index to claim
		errs    = make([]error, restarts)
		mu      sync.Mutex
		best    *Result
		bestIdx int
	)
	worker := func() {
		st := newState(ctx, c, opts, inc)
		var localBest *Result
		localIdx := -1
		for {
			r := int(next.Add(1)) - 1
			if r >= restarts || ctx.Err() != nil {
				break
			}
			st.reset(r)
			res, err := st.runTo(upTo)
			if err != nil {
				errs[r] = err
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					break
				}
				continue
			}
			st.publish(res)
			if localBest == nil || betterIdx(res, r, localBest, localIdx) {
				localBest, localIdx = res, r
			}
		}
		if localBest != nil {
			mu.Lock()
			if best == nil || betterIdx(localBest, localIdx, best, bestIdx) {
				best, bestIdx = localBest, localIdx
			}
			mu.Unlock()
		}
	}
	if workers == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	// No partial results on cancellation, whether we noticed it via the
	// context or via a restart's latched error.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: pipeline aborted: %w", err)
	}
	for _, err := range errs {
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, err
		}
	}
	if best == nil {
		for _, err := range errs {
			if err != nil && !errors.Is(err, errPruned) {
				return nil, err
			}
		}
		// Unreachable: a pruned restart implies a published incumbent,
		// which implies a successful restart.
		return nil, fmt.Errorf("%w: every restart failed", ErrInfeasible)
	}
	return best, nil
}

// betterIdx is the portfolio's total order: finish, then energy cost,
// then restart index. Its minimum is associative and
// commutative, so per-worker local minima fold into the same global
// winner the sequential scan picks.
func betterIdx(a *Result, ai int, b *Result, bi int) bool {
	af, bf := a.Finish(), b.Finish()
	if af != bf {
		return af < bf
	}
	ae, be := a.EnergyCost(), b.EnergyCost()
	if ae != be {
		return ae < be
	}
	return ai < bi
}

// errPruned marks a restart abandoned via the incumbent bound: it is a
// provable reduction loser, not a failure, and never surfaces to
// callers (an incumbent implies at least one successful restart).
var errPruned = errors.New("sched: restart pruned by incumbent bound")

// incumbent is the published best (finish, energy) pair of the
// portfolio so far, used for strict-domination pruning.
type incumbent struct {
	finish model.Time
	energy float64
}

// publish offers res's (finish, energy) as the portfolio's incumbent,
// keeping the published pair the lexicographic minimum seen so far.
func (st *state) publish(res *Result) {
	if st.inc == nil {
		return
	}
	f, e := res.Finish(), res.EnergyCost()
	for {
		cur := st.inc.Load()
		if cur != nil && (cur.finish < f || (cur.finish == f && cur.energy <= e)) {
			return
		}
		if st.inc.CompareAndSwap(cur, &incumbent{finish: f, energy: e}) {
			return
		}
	}
}

// pruned reports whether a restart whose timing stage produced sigma is
// already a provable reduction loser: the remaining stages only delay
// tasks, so the restart's final finish time is at least sigma's, and a
// strictly larger finish than the incumbent's loses the (finish,
// energy, index) reduction no matter which restart published it.
// Strict domination only — ties must run to completion, where the
// index tie-break decides deterministically.
func (st *state) pruned(sigma schedule.Schedule) bool {
	if st.inc == nil {
		return false
	}
	cur := st.inc.Load()
	return cur != nil && sigma.Finish(st.tasks) > cur.finish
}

func (st *state) runTo(upTo stage) (*Result, error) {
	var sigma schedule.Schedule
	var err error
	switch upTo {
	case stageTiming:
		sigma, err = st.timing()
		if err == nil && st.pruned(sigma) {
			return nil, errPruned
		}
	case stageMaxPower:
		sigma, err = st.maxPower()
	default:
		sigma, err = st.maxPower()
		if err == nil {
			if st.opts.Compact {
				sigma = st.compact(sigma)
			}
			sigma, err = st.minPower(sigma)
		}
	}
	if err != nil {
		return nil, err
	}
	return st.result(sigma), nil
}

// Run is an alias for MinPower, the complete power-aware scheduler.
func Run(p *model.Problem, opts Options) (*Result, error) { return MinPower(p, opts) }

// RunCtx is an alias for MinPowerCtx.
func RunCtx(ctx context.Context, p *model.Problem, opts Options) (*Result, error) {
	return MinPowerCtx(ctx, p, opts)
}

// cancelCheckEvery is how many heuristic steps pass between
// cooperative cancellation polls. Each step costs one counter
// increment; only every cancelCheckEvery-th step pays for a channel
// select, so the hot loops stay benchmark-neutral while a canceled
// pipeline still stops within one interval of heuristic work.
const cancelCheckEvery = 1024

// state is the mutable working context shared by the three stages. One
// state serves many restarts via reset, so all of its scratch buffers
// are allocated once and recycled; a state is owned by one goroutine
// and shares nothing mutable with its siblings except the incumbent
// pointer.
type state struct {
	c    *schedule.Compiled
	g    *graph.Graph // working graph: base + serialization + delays + locks
	opts Options
	st   Stats
	prio []int // candidate tie-break priority (identity unless perturbed)

	// tasks is the effective task view all three stages operate on. For
	// a degenerate problem it aliases c.Prob.Tasks and is never written;
	// for a heterogeneous one it is a state-owned copy whose Delay and
	// Power are overwritten at timing-visit time with the values of the
	// chosen (machine, level). The backing array is stable for the
	// state's lifetime, so the power tracker can hold a reference to it.
	tasks []model.Task
	// assign records the chosen (machine, level) per task; entries are
	// meaningful only for tasks currently visited by the timing search.
	// Nil for degenerate problems.
	assign model.Assignment
	// machEFT, choiceOrdBufs, and choiceKey are scratch for the timing
	// stage's earliest-finish choice ordering: machEFT is a per-machine
	// completion bound, choiceOrdBufs holds one ordering buffer per
	// search depth, carved from one bank with room for the longest
	// choice list (the recursion below a choice must not clobber the
	// orderings of the depths above it), and choiceKey is the
	// transient sort key, safe to share across depths because it is
	// consumed before the recursion descends.
	machEFT       []model.Time
	choiceOrdBufs [][]int
	choiceKey     []model.Time

	// baseMark checkpoints the freshly cloned base graph so reset can
	// roll every restart's edges back instead of re-cloning.
	baseMark graph.Checkpoint
	// rng is the working stream, drawn only by the ScanRandom gap order
	// and the SlotRandom slot. It is built on the state's first draw and
	// seeded with opts.Seed on the first draw after each reset
	// (rngSeeded), so a restart that never draws never seeds. perturbRng
	// shuffles prio for restarts r > 0 and is built on the first one.
	// Both are math/rand streams (randsrc seeds them faster), so every
	// schedule is the one rand.NewSource would give.
	rng        *rand.Rand
	rngSeeded  bool
	perturbRng *rand.Rand

	// inc is the portfolio's shared incumbent bound (nil when the run
	// has a single restart).
	inc *atomic.Pointer[incumbent]

	// ctx is the pipeline's cancellation context; ops counts heuristic
	// steps between polls and ctxErr latches the first observed
	// cancellation so every loop unwinds promptly afterwards.
	ctx    context.Context
	ops    int
	ctxErr error

	// timingMark checkpoints the graph at the end of the timing stage
	// (base constraints + serialization edges); the compaction pass
	// rolls back to it and bounds leftward moves by its in-edges.
	timingMark graph.Checkpoint

	// Incremental core. tr mirrors the current working schedule's power
	// profile as a mutable segment structure; gi indexes the tasks by
	// finish time and slack reach for the min-power stage's candidate
	// query and is the only store of slack: an entry's slack is trusted
	// only while the entry is placed and not queued, that is while
	// neither the task, the start time of any target of its outgoing
	// edges, nor its outgoing edge set has changed (see applyMove, lock,
	// and the dirtySlackAll calls at stage and combo boundaries).
	tr *power.Tracker
	gi gapIndex
	// queueMark is the index queue's length before the last delay's
	// invalidations, or -1 once anything else touched the index since (a
	// refresh, a lock, dirtySlackAll). While it holds a length, undoDelay
	// can withdraw the delay's invalidations exactly.
	queueMark int

	// cur is the working longest-path solution — one flat bank of
	// length g.N() that every stage mutates in place. The task prefix
	// cur[:NumTasks] IS the working schedule: stage code wraps it in a
	// schedule.Schedule view instead of materializing per-move copies.
	// The anchor entry stays 0 across every successful mutation: any
	// relaxation raising dist[anchor] must traverse a lock edge
	// (v -> anchor, -t), whose partner (anchor -> v, t) closes a
	// positive cycle with the raising chain, which the relaxation
	// reports as failure — so a successful delay never moves the anchor.
	cur []int
	// undo journals dist overwrites for the in-place mutations of cur:
	// the timing search truncates it to per-choice marks, delay reuses
	// it per call. Replaying it backwards restores cur exactly.
	undo []graph.DistSave
	// curU caches the current schedule's min-power utilization during
	// the min-power stage (invariant: equal to
	// prof(sigma).Utilization(Pmin) after every accepted move), so gap
	// probes compare against a cached float instead of re-integrating
	// the profile per gap time.
	curU float64

	// Reusable scratch for the stage heuristics (see each use site);
	// everything here is overwritten before being read, so reset does
	// not need to clear it.
	dist      []int         // timing search's live longest-path solution
	visited   []bool        // timing search visit marks
	heap      taskHeap      // timing search's unvisited tasks by (dist, prio)
	order     []int         // compaction's task order by (start, index)
	active    []slackedTask // tasks active at a spike time
	skipGen   []int         // epoch marks for fixSpike's skipped set
	skipEpoch int
	gapTimes  []model.Time // below-Pmin segment starts per scan
	gapCands  []gapCand    // gap-fill candidates under construction
	gapOrder  []int        // gap-fill candidates, selection-ordered
	bestBuf   []model.Time // min-power best-schedule snapshot
	comboBase []model.Time // min-power combo-entry schedule snapshot
}

func newState(ctx context.Context, c *schedule.Compiled, opts Options, inc *atomic.Pointer[incumbent]) *state {
	opts = opts.withDefaults()
	st := &state{
		c:    c,
		g:    c.Base.Clone(),
		opts: opts,
		ctx:  ctx,
		inc:  inc,
	}
	st.baseMark = st.g.Mark()
	n := c.NumTasks()
	st.prio = make([]int, n)
	for i := range st.prio {
		st.prio[i] = i
	}
	st.dist = make([]int, st.g.N())
	st.cur = make([]int, st.g.N())
	st.visited = make([]bool, n)
	st.heap = newTaskHeap(n)
	st.gi = newGapIndex(n)
	st.skipGen = make([]int, n)
	maxChoices := 0
	for _, ch := range c.Choices {
		maxChoices = max(maxChoices, len(ch))
	}
	ordBank := make([]int, n*maxChoices)
	st.choiceOrdBufs = make([][]int, n)
	for d := range st.choiceOrdBufs {
		st.choiceOrdBufs[d] = ordBank[d*maxChoices : d*maxChoices : (d+1)*maxChoices]
	}
	if c.Hetero {
		st.tasks = append([]model.Task(nil), c.Prob.Tasks...)
		st.assign = make(model.Assignment, n)
		st.machEFT = make([]model.Time, len(c.Prob.Machines))
	} else {
		st.tasks = c.Prob.Tasks
	}
	return st
}

// reset returns the state to the condition a freshly constructed state
// would be in — base graph, zeroed stats, working stream due for a
// reseed, identity priority, cold caches — then applies restart r's
// perturbation, so one worker runs an entire restart sequence without
// reallocating.
func (st *state) reset(r int) {
	st.g.Rollback(st.baseMark)
	st.st = Stats{}
	st.ops = 0
	st.ctxErr = nil
	st.rngSeeded = false
	for i := range st.prio {
		st.prio[i] = i
	}
	st.dirtySlackAll()
	st.timingMark = 0
	st.undo = st.undo[:0]
	if st.c.Hetero {
		copy(st.tasks, st.c.Prob.Tasks)
	}
	st.perturb(r)
}

// perturb shuffles the candidate tie-break priority for restart r.
// Restart 0 keeps the deterministic index order, so a single run
// reproduces the paper's greedy behaviour exactly. Each restart's
// shuffle is a function of (Seed, r) alone, which is what makes a
// restart index a complete description of its run.
func (st *state) perturb(r int) {
	if r == 0 {
		return
	}
	if st.perturbRng == nil {
		st.perturbRng = rand.New(new(randsrc.Source))
	}
	st.perturbRng.Seed(st.opts.Seed + int64(r)*0x9e3779b9)
	st.perturbRng.Shuffle(len(st.prio), func(i, j int) { st.prio[i], st.prio[j] = st.prio[j], st.prio[i] })
}

// draws returns the working stream, seeding it on the restart's first
// draw.
func (st *state) draws() *rand.Rand {
	if !st.rngSeeded {
		if st.rng == nil {
			st.rng = rand.New(new(randsrc.Source))
		}
		st.rng.Seed(st.opts.Seed)
		st.rngSeeded = true
	}
	return st.rng
}

func (st *state) result(sigma schedule.Schedule) *Result {
	res := &Result{
		Compiled: st.c,
		// Detach the schedule from the state's working bank: sigma views
		// st.cur, which the next restart mutates in place.
		Schedule: sigma.Clone(),
		Profile:  power.Build(st.tasks, sigma, st.c.Prob.BasePower),
		Stats:    st.st,
		Tasks:    st.tasks,
	}
	if st.c.Hetero {
		// Detach the task view and assignment from the state: the next
		// restart overwrites both in place. (Degenerate results alias
		// Prob.Tasks, which nothing mutates.)
		res.Tasks = append([]model.Task(nil), st.tasks...)
		res.Assignment = st.assign.Clone()
	}
	return res
}

// delay constrains task v to start no earlier than newStart by adding
// an anchor edge, then updates the working schedule st.cur IN PLACE,
// relaxing incrementally from the new edge (see graph.AddEdgeRelaxUndo)
// so only the shifted cone of successors is touched. ok is false — with
// the edge rolled back and cur restored — when the delay creates a
// positive cycle.
//
// On success the incremental core is updated for exactly the shifted
// tasks (power-profile deltas applied, affected gap-index entries
// queued), and changed journals every overwritten entry of cur. A
// caller that rejects the new schedule rolls the graph back to its own
// pre-call mark and passes changed to undoDelay; changed aliases a
// state-owned buffer that the next delay call reuses.
func (st *state) delay(v int, newStart model.Time) (changed []graph.DistSave, ok bool) {
	cp := st.g.Mark()
	st.queueMark = len(st.gi.queue)
	changed, ok = st.g.AddEdgeRelaxUndo(st.cur, st.c.Anchor, v, newStart, st.undo[:0])
	st.undo = changed
	if ok {
		st.applyMove(changed)
	} else {
		st.g.Rollback(cp)
		for i := len(changed) - 1; i >= 0; i-- {
			st.cur[changed[i].V] = changed[i].Old
		}
		changed = nil
	}
	return changed, audited(st, "delay", v, newStart, ok)
}

// lock pins task v at start t with a pair of edges (sigma(v) >= t and
// sigma(v) <= t).
func (st *state) lock(v int, t model.Time) {
	st.g.AddEdge(st.c.Anchor, v, t)
	st.g.AddEdge(v, st.c.Anchor, -t)
	st.dirtySlack(v) // v gained an outgoing edge
	st.queueMark = -1
}

// syncProfile (re)builds the incremental profile tracker onto sigma.
// Stages call it at their boundaries, where the working schedule is
// re-derived wholesale rather than by single-task moves.
func (st *state) syncProfile(sigma schedule.Schedule) {
	if st.tr == nil {
		st.tr = power.NewTracker(st.tasks, sigma, st.c.Prob.BasePower)
	} else {
		st.tr.Reset(sigma)
	}
}

// prof returns the power profile of the working schedule, which the
// tracker follows move by move (by construction of the stage loops).
// The returned profile's segments are owned by the tracker and must not
// be retained across moves.
func (st *state) prof() power.Profile {
	return audited(st, "profile", 0, 0, st.tr.Profile())
}

// applyMove updates the incremental core after a delay overwrote the
// entries journaled in changed: the profile tracker follows each moved
// task to its new start (now live in st.cur), and the gap index queues
// the moved tasks plus their constraint-graph in-neighborhood (any task
// with an outgoing edge into a moved task reads the moved start in its
// slack). Anchor entries are skipped — the anchor is not a task.
func (st *state) applyMove(changed []graph.DistSave) {
	n := st.c.NumTasks()
	for _, e := range changed {
		if e.V < n {
			st.tr.Move(e.V, st.cur[e.V])
			st.dirtySlack(e.V)
		}
	}
}

// undoDelay reverses a successful delay the caller rejected, after the
// caller rolled the graph back: the journal replays backwards into cur,
// and the tracker follows each restored task. If the gap index changed
// only by the delay's invalidations (queueMark >= 0; the gap-fill probe
// asks it nothing), those are withdrawn: cur and every task's outgoing
// edges are as before the delay (the rolled-back edge leaves the
// anchor), so the withdrawn entries' placements and slacks are valid
// again. Otherwise the restored tasks are queued like moved ones.
func (st *state) undoDelay(changed []graph.DistSave) {
	n := st.c.NumTasks()
	for i := len(changed) - 1; i >= 0; i-- {
		e := changed[i]
		st.cur[e.V] = e.Old
		if e.V < n {
			st.tr.Move(e.V, e.Old)
			if st.queueMark < 0 {
				st.dirtySlack(e.V)
			}
		}
	}
	if st.queueMark >= 0 {
		st.gi.unqueue(st.queueMark)
	}
	audited(st, "undo", 0, 0, true)
}

// dirtySlack queues task w and every task with an outgoing constraint
// edge into w for re-placement in the gap index, which drops their
// stored slacks.
func (st *state) dirtySlack(w int) {
	st.gi.mark(w)
	for id := st.g.FirstIn(w); id >= 0; id = st.g.NextIn(id) {
		if u := st.g.Edge(id).From; u != st.c.Anchor {
			st.gi.mark(u)
		}
	}
}

// dirtySlackAll requests a rebuild of the whole gap index, which drops
// every stored slack (used at restart, stage and heuristic-combo
// boundaries, where graph rollbacks remove edges en masse).
func (st *state) dirtySlackAll() {
	st.gi.rebuild = true
	st.queueMark = -1
}

// pollCancel is the cooperative cancellation point of every heuristic
// loop: it counts one step, polls the context every cancelCheckEvery
// steps, and returns (and latches) the context's error once observed.
// A latched error makes every subsequent call return immediately, so
// the timing search's recursion unwinds without re-polling.
func (st *state) pollCancel() error {
	if st.ctxErr != nil {
		return st.ctxErr
	}
	st.ops++
	if st.ops%cancelCheckEvery != 0 {
		return nil
	}
	select {
	case <-st.ctx.Done():
		st.ctxErr = fmt.Errorf("sched: pipeline aborted: %w", st.ctx.Err())
		return st.ctxErr
	default:
		return nil
	}
}

// slackOf returns Slack(v) under sigma: the gap index's stored value
// while v's entry is placed and not queued, otherwise a fresh
// computation that is not stored. The max-power stage runs with a
// rebuild pending, so it always computes.
func (st *state) slackOf(sigma schedule.Schedule, v int) model.Time {
	var sl model.Time
	if e := &st.gi.ent[v]; st.gi.rebuild || e.queued {
		sl = schedule.Slack(st.g, st.c, sigma, v)
	} else {
		sl = e.slack()
	}
	return audited(st, "slack", v, 0, sl)
}

// audit, when non-nil, receives every answer a stage takes from the
// incremental core and checks it against its from-scratch reference.
// Only tests install it (export_test.go); production leaves it nil.
var audit func(st *state, q string, v int, t model.Time, got any)

// audited hands got to the installed audit, if any, and returns it.
func audited[T any](st *state, q string, v int, t model.Time, got T) T {
	if audit != nil {
		audit(st, q, v, t, got)
	}
	return got
}
