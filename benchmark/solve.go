package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/verify"
)

const (
	whySolveLarge = "one caller solves 500-1000-task problems; min-power gap filling and the power tracker do most of the work"
	whyPortfolio  = "one caller solves 50-task problems with 32 restarts; timing backtracking and restart fan-out dominate, min-power does not"
)

// solve-large solves a fixed corpus of 48 problems whose sizes step
// evenly from 500 to 1000 tasks. Solve time varies fourfold between
// problems of one size, and a run solves only a few hundred, so a
// corpus drawn from the seed moves the median by more than its bound
// from seed to seed; the seed orders the solves instead. Sizes form a
// continuum rather than two rungs so that the median never sits in the
// gap between two clusters.
const (
	largeCount = 48
	largeMinN  = 500
	largeMaxN  = 1000
)

// solve-portfolio solves 1024 distinct 50-task problems drawn from the
// seed, half of them on four heterogeneous machines. A run solves each
// about twice, which is enough distinct problems for its median to
// repeat across seeds.
const (
	portfolioCount    = 1024
	portfolioN        = 50
	portfolioMachines = 4
	portfolioRestarts = 32
)

// probeReps is how often a traced run repeats each stage-prefix call;
// self times are differences of the medians.
const probeReps = 3

func calSolveLarge(e *env) string {
	c := largeCorpus(e.small)
	return fmt.Sprintf("closed loop, 1 caller, %d fixed problems of %d-%d tasks in seeded order, benchkit.Options(n)",
		len(c), len(c[0].p.Tasks), len(c[len(c)-1].p.Tasks))
}

func calPortfolio(e *env) string {
	c := portfolioCorpus(1, e.small)
	return fmt.Sprintf("closed loop, 1 caller, %d seeded problems of %d tasks (half on %d machines), Restarts=%d Workers=GOMAXPROCS",
		len(c), len(c[0].p.Tasks), portfolioMachines, portfolioRestarts)
}

// instance is one problem with the options it is solved under.
type instance struct {
	p    *model.Problem
	opts sched.Options
}

func largeCorpus(small bool) []instance {
	count, lo, hi := largeCount, largeMinN, largeMaxN
	if small {
		count, lo, hi = 3, 40, 80
	}
	insts := make([]instance, count)
	for i := range insts {
		n := lo + (hi-lo)*i/(count-1)
		insts[i] = instance{p: benchkit.Generate(n, int64(i+1)), opts: benchkit.Options(n)}
	}
	return insts
}

func portfolioCorpus(seed int64, small bool) []instance {
	count, n := portfolioCount, portfolioN
	if small {
		count, n = 8, 12
	}
	opts := benchkit.Options(n)
	opts.Restarts = portfolioRestarts
	opts.Workers = runtime.GOMAXPROCS(0)
	insts := make([]instance, count)
	for i := range insts {
		s := seed*1_000_003 + int64(i)
		p := benchkit.Generate(n, s)
		if i%2 == 1 {
			p = benchkit.GenerateMachines(n, portfolioMachines, s)
		}
		insts[i] = instance{p: p, opts: opts}
	}
	return insts
}

// solveState is a solve workload's corpus plus what its solves produced.
type solveState struct {
	insts   []instance
	first   []*verify.Metrics // per instance, from its first verified solve
	checkUS []float64         // verify.CheckAssigned durations
}

// newSolveState builds the corpus and warms the solver with one solve,
// so first-call costs land in set-up rather than in the first sample.
func newSolveState(e *env, o *outcome, insts []instance) *solveState {
	st := &solveState{insts: insts, first: make([]*verify.Metrics, len(insts))}
	st.solve(e, o, 0)
	return st
}

// solve runs the full pipeline on instance i and gates its result: the
// schedule must pass the independent verifier, and a repeat solve must
// reproduce the first one's metrics exactly. It returns the pipeline
// latency in milliseconds (+Inf when the solve failed).
func (st *solveState) solve(e *env, o *outcome, i int) float64 {
	inst := st.insts[i]
	o.attempted++
	start := time.Now()
	res, err := sched.MinPower(inst.p, inst.opts)
	end := time.Now()
	if err != nil {
		o.fail(e, "solve %s: %v", inst.p.Name, err)
		return math.Inf(1)
	}
	if e.rec.active() {
		e.rec.record("solve", 0, start, end)
	}
	vstart := time.Now()
	rep := verify.CheckAssigned(inst.p, res.Schedule, res.Assignment)
	st.checkUS = append(st.checkUS, us(time.Since(vstart)))
	if !rep.OK() {
		o.fail(e, "verify %s: %v", inst.p.Name, rep.Err())
		return math.Inf(1)
	}
	if prev := st.first[i]; prev == nil {
		m := rep.Metrics
		st.first[i] = &m
	} else if *prev != rep.Metrics {
		o.fail(e, "solve %s is not deterministic: %+v then %+v", inst.p.Name, *prev, rep.Metrics)
	}
	return ms(end.Sub(start))
}

// loop solves next() back to back for the window and returns the
// latencies and the rate of successful solves over the time spent
// solving (verification between solves is not the caller's wait).
func (st *solveState) loop(ctx context.Context, e *env, o *outcome, window time.Duration, next func() int) ([]float64, float64) {
	var lats []float64
	var busy float64
	ok := 0
	for start := time.Now(); time.Since(start) < window && ctx.Err() == nil; {
		l := st.solve(e, o, next())
		lats = append(lats, l)
		if !math.IsInf(l, 1) {
			busy += l
			ok++
		}
	}
	return lats, float64(ok) / (busy / 1000)
}

// measure runs the closed loop: the whole window untraced, or, when
// traced, half untraced and half traced, the traced half replaying the
// untraced half's solves so that their throughput ratio is the tracing
// overhead, followed by the stage probes. Instances the loop never
// reached are solved afterwards, so the quality metrics always cover
// the whole corpus.
func (st *solveState) measure(ctx context.Context, e *env, o *outcome, next func() int, sample []int) {
	if e.rec == nil {
		o.lat, o.throughput = st.loop(ctx, e, o, e.window, next)
	} else {
		_, base := st.loop(ctx, e, o, e.phase(0.5), replayable(&next))
		e.rec.on.Store(true)
		o.lat, o.throughput = st.loop(ctx, e, o, e.phase(0.5), next)
		o.layers["trace.overhead"] = o.throughput / base
		probe := make([]instance, len(sample))
		for k, i := range sample {
			probe[k] = st.insts[i]
		}
		probeStages(e, o, probe)
	}
	for i := range st.insts {
		if st.first[i] == nil {
			st.solve(e, o, i)
		}
	}
	var ec, rho, tau []float64
	for _, m := range st.first {
		if m != nil {
			ec = append(ec, m.EnergyCost)
			rho = append(rho, m.Utilization)
			tau = append(tau, float64(m.Finish))
		}
	}
	o.energy, o.util = mean(ec), mean(rho)
	o.layers["verify.finish"] = mean(tau)
	o.layers["verify.check_us"] = median(st.checkUS)
}

func runSolveLarge(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome(0.9)
	st, err := setUp(o, func() (*solveState, error) {
		return newSolveState(e, o, largeCorpus(e.small)), nil
	}, func(*solveState) {})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var perm []int
	next := func() int {
		if len(perm) == 0 {
			perm = rng.Perm(len(st.insts))
		}
		i := perm[0]
		perm = perm[1:]
		return i
	}
	st.measure(ctx, e, o, next, evenly(len(st.insts), 4))
	return o, nil
}

func runPortfolio(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome(0.9)
	st, err := setUp(o, func() (*solveState, error) {
		return newSolveState(e, o, portfolioCorpus(e.seed, e.small)), nil
	}, func(*solveState) {})
	if err != nil {
		return nil, err
	}
	n := 0
	next := func() int {
		n++
		return n % len(st.insts)
	}
	st.measure(ctx, e, o, next, evenly(len(st.insts), 8))
	return o, nil
}

// replayable wraps *next so that it records what it returns, and
// returns the wrapper; afterwards *next replays the recorded values in
// order, wrapping around.
func replayable[T any](next *func() T) func() T {
	gen := *next
	var seq []T
	k := 0
	*next = func() T {
		v := seq[k%len(seq)]
		k++
		return v
	}
	return func() T {
		v := gen()
		seq = append(seq, v)
		return v
	}
}

// evenly returns k indices evenly spaced over [0, n).
func evenly(n, k int) []int {
	k = min(k, n)
	out := make([]int, k)
	for j := range out {
		if k > 1 {
			out[j] = j * (n - 1) / (k - 1)
		}
	}
	return out
}

// probeStages splits the pipeline into its stages from outside: the
// deterministic prefix calls sched.Timing, sched.MaxPower and
// sched.MinPower run on each instance, and a stage's self time is the
// difference between the medians of consecutive prefixes. It also times
// the restart fan-out (Workers=1 against the instance's own Workers),
// power.Build on the final schedule, and averages the work counters of
// the final results.
func probeStages(e *env, o *outcome, insts []instance) {
	var timing, maxp, minp, seq, par, build float64
	var stats sched.Stats
	med := func(name string, f func()) float64 {
		var ds []float64
		for r := 0; r < probeReps; r++ {
			start := time.Now()
			f()
			end := time.Now()
			e.rec.record(name, 0, start, end)
			ds = append(ds, ms(end.Sub(start)))
		}
		return median(ds)
	}
	for _, in := range insts {
		var res *sched.Result
		// The measured loop already gated these calls; the probes only
		// time them.
		t := med("sched.timing", func() { sched.Timing(in.p, in.opts) })
		m := med("sched.maxpower", func() { sched.MaxPower(in.p, in.opts) })
		p := med("sched.minpower", func() { res, _ = sched.MinPower(in.p, in.opts) })
		timing += t
		maxp += m - t
		minp += p - m
		one := in.opts
		one.Workers = 1
		seq += med("sched.workers1", func() { sched.MinPower(in.p, one) })
		par += p
		if res == nil {
			continue
		}
		build += med("power.build", func() { power.Build(res.Tasks, res.Schedule, res.Compiled.Prob.BasePower) })
		stats.Backtracks += res.Stats.Backtracks
		stats.SpikeRounds += res.Stats.SpikeRounds
		stats.Scans += res.Stats.Scans
		stats.Moves += res.Stats.Moves
		stats.Rejected += res.Stats.Rejected
	}
	n := float64(len(insts))
	total := timing + maxp + minp
	o.layers["sched.timing.self_ms"] = timing / n
	o.layers["sched.maxpower.self_ms"] = maxp / n
	o.layers["sched.minpower.self_ms"] = minp / n
	o.layers["sched.timing.share"] = timing / total
	o.layers["sched.minpower.share"] = minp / total
	o.layers["sched.portfolio.speedup"] = seq / par
	o.layers["power.build_us"] = 1000 * build / n
	o.layers["sched.backtracks"] = float64(stats.Backtracks) / n
	o.layers["sched.spike_rounds"] = float64(stats.SpikeRounds) / n
	o.layers["sched.scans"] = float64(stats.Scans) / n
	o.layers["sched.moves"] = float64(stats.Moves) / n
	o.layers["sched.rejected"] = float64(stats.Rejected) / n
	if tries := stats.Moves + stats.Rejected; tries > 0 {
		o.layers["sched.minpower.accept_ratio"] = float64(stats.Moves) / float64(tries)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
