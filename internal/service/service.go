// Package service is the shared scheduling service layer: a
// concurrency-safe front for the sched pipeline that every entry point
// (web handlers, CLI sweeps, the mission simulator) routes through.
//
// The pipeline is deterministic for a given (problem, options, stage)
// triple, so results are content-addressed: the cache key is a
// canonical hash of the problem (model.Problem.Fingerprint), the
// scheduler options, and the pipeline stage. Around that key the
// service layers
//
//   - an LRU result cache, so repeated queries cost a map lookup;
//   - singleflight deduplication, so concurrent identical requests
//     compute once and share the result; and
//   - a service-wide bound on batch fan-out (sweeps, grids), so batches
//     never trip their own admission control.
//
// On top of the cache the service is the system's resilience boundary:
//
//   - every request carries a context.Context threaded into the sched
//     pipeline's cooperative cancellation checks, with an optional
//     default deadline budget (Config.DefaultTimeout);
//   - computes run on a bounded set of worker slots behind a bounded
//     wait queue; when both are full the request is shed immediately
//     with ErrOverloaded instead of queueing without bound;
//   - a panic anywhere in the pipeline is contained here and converted
//     into an error wrapping ErrInternal (stack captured into metrics,
//     process keeps serving); and
//   - cancellation is singleflight-aware: a waiter that leaves a
//     shared flight does not disturb the others, and only when the
//     last waiter leaves is the underlying compute canceled. Canceled
//     and crashed computes are never cached.
//
// Everything observable is counted in atomic metrics (hits, misses,
// singleflight joins, evictions, inflight computes, canceled /
// deadline-exceeded / shed / panicked requests, and compute
// nanoseconds per pipeline stage), snapshotted by Stats — the /stats
// document, which Publish also exports at /debug/vars.
//
// Cached *sched.Result values are shared between callers and must be
// treated as immutable.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
)

// Stage selects how much of the scheduling pipeline a request runs.
type Stage int

const (
	// StageTiming runs only the timing scheduler (paper Fig. 3).
	StageTiming Stage = iota
	// StageMaxPower adds max-power spike elimination (Fig. 4).
	StageMaxPower
	// StageMinPower runs the full pipeline (Fig. 6).
	StageMinPower
)

func (s Stage) String() string {
	switch s {
	case StageTiming:
		return "timing"
	case StageMaxPower:
		return "maxpower"
	case StageMinPower:
		return "minpower"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// ParseStage maps the web API's stage names onto Stage values. The
// empty string selects the full pipeline, matching the /schedule
// endpoint's historical default.
func ParseStage(s string) (Stage, error) {
	switch s {
	case "", "minpower":
		return StageMinPower, nil
	case "maxpower":
		return StageMaxPower, nil
	case "timing":
		return StageTiming, nil
	}
	return 0, fmt.Errorf("service: unknown stage %q", s)
}

// Config tunes a Service. The zero value selects sensible defaults.
type Config struct {
	// CacheSize bounds the number of cached results (default 1024).
	// Negative disables caching (singleflight still applies).
	CacheSize int
	// Workers bounds both the number of concurrently running computes
	// and the number of batch entries in flight across all batches
	// (default GOMAXPROCS).
	Workers int
	// MaxQueue bounds how many compute requests may wait for a free
	// worker slot before further ones are shed with ErrOverloaded
	// (default 8x Workers; negative disables waiting entirely, so any
	// request arriving while every worker is busy is shed).
	MaxQueue int
	// DefaultTimeout is the per-request compute budget applied when
	// the caller's context carries no deadline of its own (0 = none).
	DefaultTimeout time.Duration
	// Store is an optional persistent second-level cache (see
	// BlobStore): probed on LRU misses, written through on every clean
	// compute. Nil disables the tier. The store's records are
	// content-addressed by the same keys as the LRU, so it may be
	// shared across restarts (warm start) but must not be shared by
	// two live processes.
	Store BlobStore
}

// Service fronts the scheduling pipeline with a content-addressed
// cache, singleflight deduplication, and a bounded batch fan-out.
// Create one with New; the zero value is not usable.
type Service struct {
	mu       sync.Mutex
	cache    *lruCache
	inflight map[string]*call
	met      metrics

	// slots bounds concurrently running computes; queued counts
	// requests waiting for a slot (guarded by mu, bounded by
	// maxQueue). wg tracks live compute goroutines for Drain. batch
	// holds one token per batch entry in flight, across every
	// concurrent batch, and has the same capacity as slots.
	slots          chan struct{}
	batch          chan struct{}
	queued         int
	maxQueue       int
	defaultTimeout time.Duration
	wg             sync.WaitGroup

	// store is the optional persistent L2 (nil = disabled); started
	// anchors the uptime metrics (its monotonic reading survives wall
	// clock adjustments).
	store   BlobStore
	started time.Time
}

// call is one in-flight computation; waiters block on done. waiters is
// the flight's refcount (guarded by Service.mu): every joiner
// increments it, a waiter abandoning the flight decrements it, and the
// last one to leave cancels the compute's context.
type call struct {
	done    chan struct{}
	val     *sched.Result
	err     error
	waiters int
	cancel  context.CancelFunc
}

// New creates a Service.
func New(cfg Config) *Service {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 1024
	}
	if cfg.CacheSize < 0 {
		cfg.CacheSize = 0
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 8 * cfg.Workers
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	s := &Service{
		inflight:       make(map[string]*call),
		slots:          make(chan struct{}, cfg.Workers),
		batch:          make(chan struct{}, cfg.Workers),
		maxQueue:       cfg.MaxQueue,
		defaultTimeout: cfg.DefaultTimeout,
		store:          cfg.Store,
		started:        time.Now(),
	}
	s.cache = newLRU(cfg.CacheSize, &s.met.evictions)
	return s
}

var (
	sharedOnce sync.Once
	shared     *Service
)

// Shared returns the process-wide default service, created on first
// use. Components that are not handed an explicit Service (mission
// policies, facade helpers) route through it so their results are
// deduplicated with everyone else's.
func Shared() *Service {
	sharedOnce.Do(func() { shared = New(Config{}) })
	return shared
}

// Key derives the content-addressed cache key for a request. Two
// requests with equal problems (field-for-field, in order), equal
// options, and the same stage always collide; any difference
// separates them. Options are hashed before default-filling, so the
// zero Options and an explicitly spelled-out default produce distinct
// keys (both deterministic, so at worst one redundant compute).
func Key(p *model.Problem, opts sched.Options, stage Stage) string {
	return KeyFP(p.Fingerprint(), opts, stage)
}

// KeyFP is Key for callers that already hold the problem's fingerprint
// (hot loops like fault campaigns fingerprint each residual problem
// once and reuse it across the three pipeline stages).
func KeyFP(fp string, opts sched.Options, stage Stage) string {
	return fmt.Sprintf("%s/%s/%x", fp, stage, optsDigest(opts))
}

// Schedule runs the pipeline up to stage for the problem under opts,
// serving from the cache when possible and deduplicating concurrent
// identical requests. The returned result is shared: do not mutate it.
//
// The problem is cloned before computing, so later caller-side
// mutation of p cannot corrupt cached results.
func (s *Service) Schedule(p *model.Problem, opts sched.Options, stage Stage) (*sched.Result, error) {
	return s.ScheduleCtx(context.Background(), p, opts, stage)
}

// ScheduleCtx is Schedule under a context. Cache hits and singleflight
// joins are unaffected by load; a request that must compute is subject
// to admission control (ErrOverloaded when every worker is busy and
// the wait queue is full), the default deadline budget, and
// cooperative cancellation inside the pipeline. A caller abandoning a
// shared flight gets its context's error immediately; the flight keeps
// computing for the remaining waiters and is canceled only when the
// last one leaves.
func (s *Service) ScheduleCtx(ctx context.Context, p *model.Problem, opts sched.Options, stage Stage) (*sched.Result, error) {
	return s.ScheduleFPCtx(ctx, p.Fingerprint(), p, opts, stage)
}

// ScheduleFPCtx is ScheduleCtx for callers that already computed the
// problem's fingerprint: fp must equal p.Fingerprint(). It exists for
// hot loops that hit all three pipeline stages for one problem —
// fingerprinting is a canonical serialization plus a hash, and doing
// it once instead of three times is a measurable win per contingency.
func (s *Service) ScheduleFPCtx(ctx context.Context, fp string, p *model.Problem, opts sched.Options, stage Stage) (*sched.Result, error) {
	if stage < StageTiming || stage > StageMinPower {
		return nil, fmt.Errorf("service: unknown stage %d", int(stage))
	}
	return s.do(ctx, KeyFP(fp, opts, stage), p, opts, stage)
}

// testHook is the chaos-test injection point: when set, every compute
// invokes it with the compute's context and the request's cache key,
// inside the panic-containment boundary and before the pipeline runs.
// Tests inject latency (to hold worker slots, watching the context to
// observe cancellation) and panics (to exercise containment) through
// it.
var testHook atomic.Pointer[func(context.Context, string)]

// TestingSetComputeHook installs fn as the compute-entry hook and
// returns a function restoring the previous hook. It exists so chaos
// tests (including internal/web's) can simulate slow and crashing
// pipelines; production code must never call it.
func TestingSetComputeHook(fn func(ctx context.Context, key string)) (restore func()) {
	var p *func(context.Context, string)
	if fn != nil {
		p = &fn
	}
	prev := testHook.Swap(p)
	return func() { testHook.Store(prev) }
}

// withBudget applies the service's default deadline to contexts that
// do not already carry one.
func (s *Service) withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.defaultTimeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.defaultTimeout)
}

// acquireCompute reserves a compute worker slot. The fast path takes a
// free slot immediately; otherwise the request waits in a queue
// bounded by Config.MaxQueue. A full queue sheds the request with
// ErrOverloaded; a context expiring in the queue returns its error.
// The slot is released by the compute goroutine when it finishes.
func (s *Service) acquireCompute(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	s.mu.Lock()
	if s.queued >= s.maxQueue {
		s.met.shed.Add(1)
		s.mu.Unlock()
		return ErrOverloaded
	}
	s.queued++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
	}()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do is the shared cache + singleflight + admission core for the
// request under key. Errors are returned to every waiter of the
// computing flight but are never cached: a later identical request
// retries from scratch.
func (s *Service) do(ctx context.Context, key string, p *model.Problem, opts sched.Options, stage Stage) (*sched.Result, error) {
	ctx, release := s.withBudget(ctx)
	defer release()
	if err := ctx.Err(); err != nil {
		s.met.countCtxErr(err)
		return nil, err
	}
	s.mu.Lock()
	if v, ok := s.cache.get(key); ok {
		s.met.hits.Add(1)
		s.mu.Unlock()
		return v, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.met.joins.Add(1)
		c.waiters++
		s.mu.Unlock()
		return s.wait(ctx, key, c)
	}
	s.mu.Unlock()

	// L2 probe: a persisted result skips admission control entirely —
	// rehydration is a disk read plus a compile, orders of magnitude
	// cheaper than the pipeline. An undecodable record degrades to a
	// miss. Two racing probes may both rehydrate and both fill L1;
	// that is benign (identical content, last write wins).
	if s.store != nil {
		if data, ok := s.store.Get(storeKeyPrefix + key); ok {
			if v, err := decodeResult(p, data); err == nil {
				s.met.hitsL2.Add(1)
				s.mu.Lock()
				s.cache.add(key, v)
				s.mu.Unlock()
				return v, nil
			}
		}
	}

	// No cached value and no flight to join: this request must
	// compute, so it passes admission control before becoming a flight
	// owner. Shedding happens here, before anyone can join, so joined
	// waiters never inherit another caller's overload rejection.
	if err := s.acquireCompute(ctx); err != nil {
		if !errors.Is(err, ErrOverloaded) {
			s.met.countCtxErr(err)
		}
		return nil, err
	}
	s.mu.Lock()
	// Re-check: the cache or another flight may have filled in while
	// this request waited for its slot.
	if v, ok := s.cache.get(key); ok {
		s.met.hits.Add(1)
		s.mu.Unlock()
		<-s.slots
		return v, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.met.joins.Add(1)
		c.waiters++
		s.mu.Unlock()
		<-s.slots
		return s.wait(ctx, key, c)
	}
	// The compute context is detached from this caller's cancellation
	// (other waiters may join the flight) but is canceled by the last
	// waiter to leave, so an abandoned compute stops within one of the
	// pipeline's cancellation-check intervals.
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &call{done: make(chan struct{}), cancel: cancel, waiters: 1}
	s.inflight[key] = c
	s.met.misses.Add(1)
	s.met.inflight.Add(1)
	s.wg.Add(1)
	s.mu.Unlock()
	go s.compute(cctx, key, p, opts, stage, c)
	return s.wait(ctx, key, c)
}

// compute runs one flight's pipeline on a reserved worker slot, on a
// clone of p so later caller-side mutation cannot corrupt the cached
// result. Panics are contained here: the stack goes into the metrics,
// the waiters get an error wrapping ErrInternal, and the process keeps
// serving. Only a compute that finished cleanly and was never canceled
// may populate the cache and the persistent store.
func (s *Service) compute(ctx context.Context, key string, p *model.Problem, opts sched.Options, stage Stage, c *call) {
	defer s.wg.Done()
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.met.recordPanic(r, debug.Stack())
				c.val, c.err = nil, fmt.Errorf("%w: compute panicked: %v", ErrInternal, r)
			}
		}()
		if hook := testHook.Load(); hook != nil {
			(*hook)(ctx, key)
		}
		q := p.Clone()
		switch stage {
		case StageTiming:
			c.val, c.err = sched.TimingCtx(ctx, q, opts)
		case StageMaxPower:
			c.val, c.err = sched.MaxPowerCtx(ctx, q, opts)
		case StageMinPower:
			c.val, c.err = sched.MinPowerCtx(ctx, q, opts)
		}
	}()
	elapsed := time.Since(start)

	s.mu.Lock()
	if s.inflight[key] == c {
		delete(s.inflight, key)
	}
	s.met.inflight.Add(-1)
	s.met.computeNS[stage].Add(int64(elapsed))
	// Never cache a canceled compute, even one that happened to finish
	// between the cancellation and this check: only results every
	// still-interested caller could have observed are cacheable.
	cacheable := c.err == nil && ctx.Err() == nil
	if cacheable {
		s.cache.add(key, c.val)
	}
	s.mu.Unlock()
	// Write-through to the persistent tier outside the lock: the store
	// serializes internally, and a disk failure only costs a future
	// recompute, never the response. A plan past model.MaxHorizon gets
	// no record: the decoder would refuse it.
	if cacheable && s.store != nil && c.val.Finish() <= model.MaxHorizon {
		if err := s.store.Put(storeKeyPrefix+key, EncodeResult(c.val)); err != nil {
			s.met.storeErrs.Add(1)
		}
	}
	// Free the slot before waking the waiters: a caller holding its
	// answer must find the worker free for its next request.
	<-s.slots
	c.cancel()
	close(c.done)
}

// wait blocks until the flight completes or the caller's context is
// done. A waiter that leaves early decrements the flight's refcount;
// the last waiter to leave removes the flight from the dedup map (so
// new requests start fresh instead of joining a dying compute) and
// cancels the compute's context.
func (s *Service) wait(ctx context.Context, key string, c *call) (*sched.Result, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		s.mu.Lock()
		c.waiters--
		last := c.waiters == 0
		if last && s.inflight[key] == c {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
		if last {
			c.cancel()
		}
		err := ctx.Err()
		s.met.countCtxErr(err)
		return nil, err
	}
}

// Drain blocks until every in-flight compute goroutine has finished,
// or until ctx is done. Graceful shutdown calls it after the HTTP
// server stops accepting requests, so no pipeline work is abandoned
// mid-flight by process exit.
func (s *Service) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Request is one entry of a batch submission.
type Request struct {
	Problem *model.Problem
	Opts    sched.Options
	Stage   Stage
}

// Response pairs a batch entry's result with its error.
type Response struct {
	Result *sched.Result
	Err    error
}

// ScheduleBatch evaluates all requests, at most Workers at once, and
// returns responses in request order. Identical requests (within the
// batch or across callers) are deduplicated by the cache and
// singleflight exactly like sequential calls.
func (s *Service) ScheduleBatch(reqs []Request) []Response {
	return s.ScheduleBatchCtx(context.Background(), reqs)
}

// ScheduleBatchCtx is ScheduleBatch under a context: cancellation
// stops further submission, aborts the in-flight entries through their
// pipelines' cooperative checks, and marks every unsubmitted entry
// with the context's error. An entry is submitted only once it holds
// one of the service's Workers batch tokens, shared by every
// concurrent batch, and each submitted entry then takes a compute
// slot, so no number of concurrent batches can trip the service's
// admission control.
func (s *Service) ScheduleBatchCtx(ctx context.Context, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		select {
		case s.batch <- struct{}{}:
		case <-ctx.Done():
			for j := i; j < len(reqs); j++ {
				out[j].Err = ctx.Err()
			}
			wg.Wait()
			return out
		}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-s.batch
				wg.Done()
			}()
			r := reqs[i]
			out[i].Result, out[i].Err = s.ScheduleCtx(ctx, r.Problem, r.Opts, r.Stage)
		}(i)
	}
	wg.Wait()
	return out
}

// Workers returns the service's concurrency bound: its number of
// compute slots and of batch tokens.
func (s *Service) Workers() int { return cap(s.slots) }
