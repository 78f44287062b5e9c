package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
)

// holdCompute installs, for the rest of the test, a compute hook that
// parks every compute of p's timing stage until release is closed or
// the compute's context is canceled. It returns a channel that
// receives once per parked compute, as it parks.
func holdCompute(t *testing.T, p *model.Problem, release <-chan struct{}) (parked <-chan struct{}) {
	t.Helper()
	key := Key(p, sched.Options{}, StageTiming)
	in := make(chan struct{}, 16) // more than any test parks, so the hook never blocks on it
	t.Cleanup(TestingSetComputeHook(func(ctx context.Context, k string) {
		if k != key {
			return
		}
		in <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}))
	return in
}

// blockingCompute starts a compute of p's timing stage on svc that
// parks until release is closed, and returns once the compute is
// definitely holding its worker slot.
func blockingCompute(t *testing.T, svc *Service, p *model.Problem, release <-chan struct{}) (done <-chan error) {
	t.Helper()
	parked := holdCompute(t, p, release)
	errc := make(chan error, 1)
	go func() {
		_, err := svc.ScheduleCtx(context.Background(), p, sched.Options{}, StageTiming)
		errc <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("compute never started")
	}
	return errc
}

// TestOverloadShedsImmediately: with one worker busy and no wait queue,
// a second distinct request is rejected with ErrOverloaded without
// blocking, and the shed counter moves.
func TestOverloadShedsImmediately(t *testing.T) {
	svc := New(Config{Workers: 1, MaxQueue: -1})
	release := make(chan struct{})
	done := blockingCompute(t, svc, twoTask(100), release)

	_, err := svc.ScheduleCtx(context.Background(), twoTask(0), sched.Options{}, StageTiming)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := svc.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked compute failed: %v", err)
	}
	// With the worker free again the identical request now succeeds.
	if _, err := svc.ScheduleCtx(context.Background(), twoTask(0), sched.Options{}, StageTiming); err != nil {
		t.Fatalf("post-overload retry failed: %v", err)
	}
}

// TestBoundedQueueAdmitsThenSheds: one slot in the queue lets exactly
// one extra request wait; the next one sheds.
func TestBoundedQueueAdmitsThenSheds(t *testing.T) {
	svc := New(Config{Workers: 1, MaxQueue: 1})
	release := make(chan struct{})
	done := blockingCompute(t, svc, twoTask(100), release)

	queuedErr := make(chan error, 1)
	go func() {
		_, err := svc.ScheduleCtx(context.Background(), twoTask(1), sched.Options{}, StageTiming)
		queuedErr <- err
	}()
	// Wait for the second request to occupy the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.ScheduleCtx(context.Background(), twoTask(2), sched.Options{}, StageTiming); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request: err = %v, want ErrOverloaded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
	if st := svc.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

// TestDefaultTimeoutBudget: a caller without a deadline inherits the
// service's default budget and gets DeadlineExceeded when the compute
// outlives it; the abandoned compute's context is canceled.
func TestDefaultTimeoutBudget(t *testing.T) {
	svc := New(Config{DefaultTimeout: 20 * time.Millisecond})
	p := twoTask(0)
	parked := holdCompute(t, p, nil)
	start := time.Now()
	_, err := svc.ScheduleCtx(context.Background(), p, sched.Options{}, StageTiming)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	<-parked
	// The hook returns only once the compute's context is canceled.
	if err := svc.Drain(contextTimeout(t, 5*time.Second)); err != nil {
		t.Fatal("abandoned compute was never canceled")
	}
	if st := svc.Stats(); st.DeadlineExceeded != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 deadline_exceeded and nothing cached", st)
	}
}

// TestPanicContainment: a panicking compute yields ErrInternal (with
// the panic value in the message), counts in the panics metric with a
// captured stack, is never cached, and leaves the service serving.
func TestPanicContainment(t *testing.T) {
	svc := New(Config{})
	var boom atomic.Bool
	boom.Store(true)
	t.Cleanup(TestingSetComputeHook(func(context.Context, string) {
		if boom.Load() {
			panic("kaboom")
		}
	}))
	p := twoTask(0)
	_, err := svc.Schedule(p, sched.Options{}, StageTiming)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error %q does not name the panic value", err)
	}
	st := svc.Stats()
	if st.Panics != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 panic and nothing cached", st)
	}
	if stack := svc.met.lastPanicSnapshot(); !strings.Contains(stack, "kaboom") {
		t.Errorf("last_panic does not carry the stack: %q", stack)
	}
	// Same key afterwards: the crash was not cached, the retry runs.
	boom.Store(false)
	if res, err := svc.Schedule(p, sched.Options{}, StageTiming); err != nil || res == nil {
		t.Fatalf("retry after panic = %v, %v", res, err)
	}
	if st := svc.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want the retry to compute and be cached", st)
	}
}

// contextTimeout is a context canceled after d or at the end of the
// test.
func contextTimeout(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestSingleflightSharedCancelSemantics: one caller abandoning a
// shared flight gets its own context error immediately while the other
// caller still receives the computed result; the compute runs once.
func TestSingleflightSharedCancelSemantics(t *testing.T) {
	svc := New(Config{})
	p := twoTask(0)
	release := make(chan struct{})
	parked := holdCompute(t, p, release)

	bg := make(chan error, 1)
	var bgRes atomic.Pointer[sched.Result]
	go func() {
		res, err := svc.ScheduleCtx(context.Background(), p, sched.Options{}, StageTiming)
		bgRes.Store(res)
		bg <- err
	}()
	<-parked

	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() {
		_, err := svc.ScheduleCtx(ctx, p, sched.Options{}, StageTiming)
		joined <- err
	}()
	// Wait for the join to register, then abandon it.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Joins == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second caller never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-joined; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller: err = %v, want Canceled", err)
	}
	// The shared compute must not have been disturbed.
	close(release)
	if err := <-bg; err != nil {
		t.Fatalf("remaining caller: %v", err)
	}
	if bgRes.Load() == nil {
		t.Fatal("remaining caller got no result")
	}
	if n := len(parked); n != 0 {
		t.Errorf("computes = %d, want 1", n+1)
	}
	if st := svc.Stats(); st.Canceled != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 canceled and 1 miss", st)
	}
}

// TestLastWaiterCancelsAndNothingIsCached: when the only caller leaves,
// the compute's context is canceled, nothing is cached, and an
// identical follow-up request computes fresh.
func TestLastWaiterCancelsAndNothingIsCached(t *testing.T) {
	svc := New(Config{})
	p := twoTask(0)
	ctx, cancel := context.WithCancel(context.Background())
	observed := make(chan struct{})
	var once sync.Once
	t.Cleanup(TestingSetComputeHook(func(cctx context.Context, _ string) {
		once.Do(func() {
			cancel() // the only waiter leaves mid-compute
			<-cctx.Done()
			close(observed)
		})
	}))
	if _, err := svc.ScheduleCtx(ctx, p, sched.Options{}, StageTiming); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context was not canceled by the last waiter leaving")
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Entries != 0 {
		t.Fatalf("canceled compute was cached: %+v", st)
	}
	if res, err := svc.Schedule(p, sched.Options{}, StageTiming); err != nil || res == nil {
		t.Fatalf("follow-up = %v, %v; want fresh compute", res, err)
	}
	if st := svc.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want the follow-up to compute fresh", st)
	}
}

// TestDrain: Drain times out while a compute is in flight and returns
// promptly once it finishes.
func TestDrain(t *testing.T) {
	svc := New(Config{})
	release := make(chan struct{})
	done := blockingCompute(t, svc, twoTask(100), release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with busy compute = %v, want DeadlineExceeded", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after completion = %v", err)
	}
}

// TestScheduleBatchCtxCancellation: canceling a batch while its one
// submitted entry holds the only worker stops further submission,
// cancels that entry's compute, and marks every entry with the
// context's error instead of hanging or leaking.
func TestScheduleBatchCtxCancellation(t *testing.T) {
	svc := New(Config{Workers: 1})
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Problem: twoTask(i), Stage: StageTiming}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var computes atomic.Int64
	t.Cleanup(TestingSetComputeHook(func(cctx context.Context, _ string) {
		computes.Add(1)
		cancel()
		<-cctx.Done()
	}))
	resps := svc.ScheduleBatchCtx(ctx, reqs)
	for i, r := range resps {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("entry %d: err = %v, want Canceled", i, r.Err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1 (submission must stop at cancel)", n)
	}
	if err := svc.Drain(contextTimeout(t, 5*time.Second)); err != nil {
		t.Fatal("canceled entry's compute never finished")
	}
	// A batch under a context canceled up front computes nothing.
	for i, r := range svc.ScheduleBatchCtx(ctx, reqs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("up-front cancel: entry %d: err = %v, want Canceled", i, r.Err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d after an up-front cancel, want still 1", n)
	}
}

// TestScheduleBatchCtxStopsMidBatch: on a one-worker service, a cancel
// during the third entry's compute stops submission there. The two
// entries that finished before it keep their answers; the third and
// every later entry carry the context's error, and nothing after the
// third is computed.
func TestScheduleBatchCtxStopsMidBatch(t *testing.T) {
	svc := New(Config{Workers: 1})
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Problem: twoTask(i), Stage: StageTiming}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var computes atomic.Int64
	t.Cleanup(TestingSetComputeHook(func(cctx context.Context, _ string) {
		if computes.Add(1) == 3 {
			cancel()
			<-cctx.Done()
		}
	}))
	resps := svc.ScheduleBatchCtx(ctx, reqs)
	for i, r := range resps[:2] {
		if r.Err != nil || r.Result == nil {
			t.Errorf("entry %d finished before the cancel: result %v, err %v", i, r.Result, r.Err)
		}
	}
	for i, r := range resps[2:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("entry %d: err = %v, want Canceled", i+2, r.Err)
		}
	}
	if n := computes.Load(); n != 3 {
		t.Errorf("computes = %d, want 3 (submission must stop at cancel)", n)
	}
	if err := svc.Drain(contextTimeout(t, 5*time.Second)); err != nil {
		t.Fatal("canceled entry's compute never finished")
	}
	// Entries after the third never reach the service: a batch that
	// kept submitting would have each one counted as canceled there.
	if st := svc.Stats(); st.Misses != 3 || st.Canceled != 1 {
		t.Errorf("stats = %+v, want 3 misses and 1 canceled request", st)
	}
}

// TestConcurrentBatchesShareOneBound: sixteen batches at once on a
// one-worker service, while a parked compute holds the worker, never
// shed an entry. The batch bound is service-wide, so at most one entry
// of all the batches waits for the worker, within the default queue.
func TestConcurrentBatchesShareOneBound(t *testing.T) {
	svc := New(Config{Workers: 1})
	release := make(chan struct{})
	hog := blockingCompute(t, svc, twoTask(100), release)

	const batches, perBatch = 16, 4
	errs := make(chan error, batches*perBatch)
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		reqs := make([]Request, perBatch)
		for i := range reqs {
			p := twoTask(b*perBatch + i)
			p.Name = fmt.Sprintf("batch-%d-%d", b, i)
			reqs[i] = Request{Problem: p, Stage: StageTiming}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range svc.ScheduleBatchCtx(context.Background(), reqs) {
				errs <- r.Err
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no batch entry ever queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Hold the worker a moment longer: a per-batch bound would let all
	// sixteen batches queue an entry each by now and overflow the queue
	// of eight. The pass does not depend on this pause; only the
	// sensitivity to a per-batch bound does.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-hog; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("batch entry failed: %v", err)
		}
	}
	if st := svc.Stats(); st.Shed != 0 || st.Misses != batches*perBatch+1 {
		t.Errorf("stats = %+v, want no shed and every entry computed", st)
	}
}

// TestWorkersDefaultsToGOMAXPROCS: the zero Config bounds computes and
// batch fan-out at GOMAXPROCS.
func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got := New(Config{}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d, want GOMAXPROCS", got)
	}
	if got := New(Config{Workers: 3}).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}
