package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/schedule"
)

// TestChaosCancelPanicOverload hammers the service with concurrent
// schedule requests under random early cancellations, tight deadlines,
// and hook-injected panics, on a deliberately undersized worker pool so
// admission control sheds. It then certifies the failure envelope:
//
//   - every request terminates with one of the five sanctioned
//     outcomes (success, Canceled, DeadlineExceeded, ErrOverloaded,
//     ErrInternal) — nothing else escapes the boundary;
//   - no goroutines leak once the service drains;
//   - the cache is not poisoned: identical follow-up requests succeed
//     and agree with a direct, service-free pipeline run.
//
// Run it under -race; the CI chaos smoke step does.
func TestChaosCancelPanicOverload(t *testing.T) {
	// A wide key space (problems × seeds) keeps real computes flowing
	// instead of the cache absorbing the whole hammer, so the panic and
	// deadline paths are actually exercised.
	probs := make([]Request, 48)
	for i := range probs {
		probs[i] = Request{Problem: twoTask(i % 6), Opts: sched.Options{Seed: int64(i)}, Stage: StageMinPower}
	}

	baseline := runtime.NumGoroutine()

	svc := New(Config{Workers: 2, MaxQueue: 2, CacheSize: 64})
	var hookCalls atomic.Int64
	restore := TestingSetComputeHook(func(context.Context, string) {
		n := hookCalls.Add(1)
		if n%7 == 0 {
			panic(fmt.Sprintf("chaos: injected panic #%d", n))
		}
		if n%3 == 0 {
			time.Sleep(200 * time.Microsecond) // hold the slot to force queueing/shedding
		}
	})

	const hammerers = 16
	const iters = 30
	var outcomes [5]atomic.Int64 // ok, canceled, deadline, shed, internal
	var wg sync.WaitGroup
	for g := 0; g < hammerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for i := 0; i < iters; i++ {
				req := probs[rng.Intn(len(probs))]
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(3) {
				case 0: // cancel shortly after issuing
					ctx, cancel = context.WithCancel(ctx)
					d := time.Duration(rng.Intn(1500)) * time.Microsecond
					time.AfterFunc(d, cancel)
				case 1: // tight deadline, sometimes already expired
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				_, err := svc.ScheduleCtx(ctx, req.Problem, req.Opts, req.Stage)
				cancel()
				switch {
				case err == nil:
					outcomes[0].Add(1)
				case errors.Is(err, context.Canceled):
					outcomes[1].Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					outcomes[2].Add(1)
				case errors.Is(err, ErrOverloaded):
					outcomes[3].Add(1)
				case errors.Is(err, ErrInternal):
					outcomes[4].Add(1)
				default:
					t.Errorf("unsanctioned error escaped the service boundary: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	restore()

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		t.Fatalf("service did not drain after chaos: %v", err)
	}

	t.Logf("outcomes: ok=%d canceled=%d deadline=%d shed=%d internal=%d; stats=%+v",
		outcomes[0].Load(), outcomes[1].Load(), outcomes[2].Load(),
		outcomes[3].Load(), outcomes[4].Load(), svc.Stats())

	// No cache poisoning: every problem still schedules through the
	// service and matches a direct pipeline run that bypasses it.
	for i, req := range probs {
		got, err := svc.ScheduleCtx(context.Background(), req.Problem, req.Opts, req.Stage)
		if err != nil {
			t.Fatalf("follow-up request %d failed after chaos: %v", i, err)
		}
		want, err := sched.MinPower(req.Problem, req.Opts)
		if err != nil {
			t.Fatalf("direct pipeline run %d failed: %v", i, err)
		}
		if !schedulesEqual(got.Schedule, want.Schedule) {
			t.Errorf("problem %d: cached result diverges from direct pipeline run (cache poisoned)", i)
		}
	}

	// No goroutine leaks: allow the runtime a settle window.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// schedulesEqual compares two schedules by start times.
func schedulesEqual(a, b schedule.Schedule) bool {
	if len(a.Start) != len(b.Start) {
		return false
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			return false
		}
	}
	return true
}
