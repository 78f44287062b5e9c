package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/service"
)

// Campaign fans N seeded fault-injection runs across worker goroutines
// and folds the outcomes into a streaming Reducer. Run i uses the seed
// splitmix64(Seed, i), so the per-run seeds — and therefore every
// statistic — are independent of worker count and scheduling order;
// the integer reducer algebra makes the fold independent of grouping.
// The same (Seed, Runs) always produces the same Summary, byte for
// byte, at any parallelism and across any seed-range sharding
// (ReduceRange + Reducer.Merge).
type Campaign struct {
	Mission Mission
	Faults  FaultModel
	// Runs is the number of seeded runs (required, > 0).
	Runs int
	// Seed is the campaign master seed.
	Seed int64
	Opts sched.Options
	// Svc is the scheduling service (Shared() when nil). Its worker
	// count sets run concurrency; its cache deduplicates identical
	// residual problems across runs.
	Svc *service.Service
	// MaxReschedules bounds per-run replanning
	// (DefaultMaxReschedules when 0).
	MaxReschedules int
}

// Dist summarizes a sample distribution. Mean and Max are exact; P50
// and P95 come from the reducer's integer log-bucket sketch (relative
// error <= 2^-5), clamped to the observed [min, max].
type Dist struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Max  float64 `json:"max"`
}

// Summary aggregates a campaign. Field order (and the sorted Failures
// map keys) make its JSON rendering deterministic.
type Summary struct {
	Runs             int            `json:"runs"`
	Seed             int64          `json:"seed"`
	Survived         int            `json:"survived"`
	SurvivalRate     float64        `json:"survival_rate"`
	DeadlineMisses   int            `json:"deadline_misses"`
	DeadlineMissRate float64        `json:"deadline_miss_rate"`
	Reschedules      int            `json:"reschedules"`
	Fallbacks        int            `json:"fallbacks"`
	Waits            int            `json:"waits"`
	VerifyRejects    int            `json:"verify_rejects"`
	ConstraintDrops  int            `json:"constraint_drops"`
	Failures         map[string]int `json:"failures,omitempty"`
	// RescheduleHist[k] counts runs that replanned exactly k times
	// (trailing zeros trimmed; omitted when no runs were folded).
	RescheduleHist []int64 `json:"reschedule_hist,omitempty"`
	// EnergyCost is the battery-energy distribution over all runs;
	// Finish is the completion-time distribution over surviving runs.
	EnergyCost Dist `json:"energy_cost"`
	Finish     Dist `json:"finish"`
}

// JSON renders the summary with stable indentation and key order.
func (s Summary) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Run executes the campaign.
func (c Campaign) Run() (Summary, error) {
	return c.RunCtx(context.Background())
}

// RunCtx is Run under a context. A canceled campaign stops claiming
// runs, lets in-flight runs abandon themselves at their next replanning
// decision, and returns the context's error: a partial campaign would
// silently skew every statistic, so there is no partial Summary.
func (c Campaign) RunCtx(ctx context.Context) (Summary, error) {
	red, err := c.ReduceRange(ctx, 0, c.Runs)
	if err != nil {
		return Summary{}, err
	}
	return red.Finalize(c.Seed), nil
}

// ReduceRange executes runs [lo, hi) of the campaign and returns their
// partial reducer. It is the sharding entry point: a coordinator that
// splits [0, Runs) into contiguous sub-ranges, calls ReduceRange for
// each (locally or on remote shards), and merges the partial reducers
// in range order gets exactly RunCtx's summary — run i's outcome
// depends only on splitmix64(Seed, i), and the reducer algebra is
// exact, so the grouping cannot show through.
//
// Memory is constant in (hi - lo): each worker folds runs into a
// private reducer as they finish; no per-run result is retained.
func (c Campaign) ReduceRange(ctx context.Context, lo, hi int) (*Reducer, error) {
	if c.Runs <= 0 {
		return nil, fmt.Errorf("sim: campaign needs Runs > 0, got %d", c.Runs)
	}
	if c.Mission.Problem == nil || len(c.Mission.Phases) == 0 {
		return nil, fmt.Errorf("sim: campaign mission needs a problem and at least one phase")
	}
	if lo < 0 || hi > c.Runs || lo >= hi {
		return nil, fmt.Errorf("sim: campaign range [%d, %d) outside [0, %d)", lo, hi, c.Runs)
	}
	cfg := runConfig{
		Mission:        c.Mission,
		Faults:         c.Faults,
		Opts:           c.Opts,
		Svc:            c.Svc,
		MaxReschedules: c.MaxReschedules,
	}
	if cfg.Svc == nil {
		cfg.Svc = service.Shared()
	}
	if cfg.MaxReschedules <= 0 {
		cfg.MaxReschedules = DefaultMaxReschedules
	}
	workers := cfg.Svc.Workers()
	if workers > hi-lo {
		workers = hi - lo
	}
	if workers < 1 {
		workers = 1
	}

	// Hoist the nominal plan: every run plans the same problem under
	// the same t=0 conditions, so one adopt serves the whole range.
	nom := hoistNominal(ctx, cfg)
	if !nom.ok && ctx.Err() != nil {
		return nil, fmt.Errorf("sim: campaign aborted: %w", ctx.Err())
	}

	// Workers claim run indices from a shared counter and fold results
	// into private reducers. Claim order is racy; the summary is not,
	// because folding is commutative and exact. Dedicated goroutines —
	// not the service pool — so campaign workers can never starve the
	// compute slots their own adopts queue on.
	reds := make([]*Reducer, workers)
	var (
		next     atomic.Int64
		canceled atomic.Bool
		wg       sync.WaitGroup
	)
	next.Store(int64(lo))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			red := NewReducer()
			reds[w] = red
			sc := newRunScratch()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi || canceled.Load() || ctx.Err() != nil {
					return
				}
				cfg := cfg
				cfg.Seed = runSeed(c.Seed, i)
				res := runOne(ctx, cfg, sc, nom)
				if res.Failure == FailCanceled {
					// An abandoned run, not a mission verdict: folding
					// it would skew the campaign, so abort instead.
					canceled.Store(true)
					return
				}
				red.Add(res)
				progRunDone(i, !res.Survived)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: campaign aborted: %w", err)
	}
	if canceled.Load() {
		// A run saw cancellation that the context has since cleared —
		// only possible with an exotic context; report it anyway.
		return nil, fmt.Errorf("sim: campaign aborted: %w", context.Canceled)
	}
	// Merge the worker reducers in worker order. (Any order gives the
	// same bytes — the fold is exact — but determinism should not need
	// that argument to be checked twice.)
	total := reds[0]
	for _, r := range reds[1:] {
		total.Merge(r)
	}
	return total, nil
}
