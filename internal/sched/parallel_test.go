package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// equalResults fails the test unless a and b are byte-identical
// portfolio outcomes: same schedule, same profile segments, same stats,
// same derived metrics.
func equalResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !a.Schedule.Equal(b.Schedule) {
		t.Fatalf("%s: schedules differ:\n  a=%v\n  b=%v", label, a.Schedule.Start, b.Schedule.Start)
	}
	if !reflect.DeepEqual(a.Profile.Segs, b.Profile.Segs) {
		t.Fatalf("%s: profiles differ:\n  a=%v\n  b=%v", label, a.Profile.Segs, b.Profile.Segs)
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ: a=%+v b=%+v", label, a.Stats, b.Stats)
	}
	if a.Finish() != b.Finish() || a.EnergyCost() != b.EnergyCost() {
		t.Fatalf("%s: metrics differ: a=(%d, %g) b=(%d, %g)",
			label, a.Finish(), a.EnergyCost(), b.Finish(), b.EnergyCost())
	}
}

// TestParallelRestartsMatchSequential is the tentpole's differential
// proof: for every corpus problem, restart count, and worker count, the
// parallel portfolio returns exactly the sequential (Workers=1) result
// — schedule, profile, stats — through every pipeline stage. This is
// what lets Workers stay out of the semantic contract (though it still
// enters the cache key, conservatively).
func TestParallelRestartsMatchSequential(t *testing.T) {
	stages := []struct {
		name string
		run  func(p *model.Problem, o Options) (*Result, error)
	}{
		{"timing", Timing},
		{"maxpower", MaxPower},
		{"minpower", MinPower},
	}
	budgetProblem := backtrackProblemN(15)
	seeds := []int64{0, 1, 2, 3, 5, 8, 13, 21, 29, 34}
	if testing.Short() {
		seeds = seeds[:4]
	}
	// The MaxBacktracks rows put restarts on a small backtrack budget.
	// On the 15-task backtracking problem that budget fails some
	// restarts in the timing stage (restart 0 needs 105) while siblings
	// succeed, so the reduction has to skip budget failures.
	if _, err := Timing(budgetProblem, Options{MaxBacktracks: 64}); err == nil {
		t.Fatal("restart 0 of the backtracking problem fits a 64-backtrack budget; the budget rows prove nothing")
	}
	table := []Options{
		{Restarts: 1},
		{Restarts: 4, Compact: true},
		{Restarts: 32, Compact: true},
		{Restarts: 32, MaxBacktracks: 64},
		{Restarts: 32, MaxBacktracks: 64, Compact: true},
	}
	for _, seed := range seeds {
		for _, p := range []*model.Problem{genProblem(seed), budgetProblem} {
			for _, row := range table {
				if p == budgetProblem && row.MaxBacktracks == 0 {
					continue
				}
				opts := row
				opts.Seed = seed
				restarts := opts.Restarts
				for _, stg := range stages {
					opts.Workers = 1
					want, wantErr := stg.run(p, opts)
					for _, workers := range []int{2, 8} {
						opts.Workers = workers
						got, gotErr := stg.run(p, opts)
						label := fmt.Sprintf("%s/%s/maxbacktracks=%d/compact=%v",
							p.Name, labelFor(seed, restarts, workers, stg.name), opts.MaxBacktracks, opts.Compact)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: error mismatch: sequential=%v parallel=%v", label, wantErr, gotErr)
						}
						if wantErr != nil {
							continue
						}
						equalResults(t, label, got, want)
					}
				}
			}
		}
	}
}

func labelFor(seed int64, restarts, workers int, stage string) string {
	return fmt.Sprintf("%s/seed=%d/restarts=%d/workers=%d", stage, seed, restarts, workers)
}

// TestWorkersDefaultAndOverflow: Workers<=0 resolves to GOMAXPROCS and
// Workers>Restarts is capped, both yielding the sequential result.
func TestWorkersDefaultAndOverflow(t *testing.T) {
	p := genProblem(7)
	want, err := MinPower(p, Options{Seed: 7, Restarts: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, -3, 64} {
		got, err := MinPower(p, Options{Seed: 7, Restarts: 4, Workers: workers})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		equalResults(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestParallelCancellationHammer drives parallel portfolios under
// random mid-flight cancellation (run with -race): every call either
// returns the exact deterministic result or a context error with no
// result — never a partial portfolio.
func TestParallelCancellationHammer(t *testing.T) {
	p := genProblem(11)
	opts := Options{Seed: 11, Restarts: 32, Workers: 8, Compact: true}
	want, err := MinPower(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	iters := 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < iters; k++ {
				ctx, cancel := context.WithCancel(context.Background())
				delay := time.Duration(rng.Intn(300)) * time.Microsecond
				timer := time.AfterFunc(delay, cancel)
				res, err := MinPowerCtx(ctx, p, opts)
				timer.Stop()
				cancel()
				switch {
				case err == nil:
					if !res.Schedule.Equal(want.Schedule) || !reflect.DeepEqual(res.Profile.Segs, want.Profile.Segs) {
						errCh <- errors.New("completed run diverged from the deterministic result")
						return
					}
				case errors.Is(err, context.Canceled):
					if res != nil {
						errCh <- errors.New("canceled run returned a partial result")
						return
					}
				default:
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
