package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// A target that stalls must inflate the latency of every request due
// during the stall: the open loop times requests from their due time,
// so the stall's wait is charged to them instead of being omitted.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	send := func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}
	// One sender, one request due every 5 ms.
	res := openLoop(context.Background(), 200, 200*time.Millisecond, 1, send)
	if len(res.samples) != 40 {
		t.Fatalf("sent %d requests, want 40", len(res.samples))
	}
	for i := 1; i <= 10; i++ {
		due := time.Duration(i) * 5 * time.Millisecond
		if want := stall - due - 5*time.Millisecond; res.samples[i].lat < want {
			t.Errorf("request %d due at %v: latency %v, want >= %v", i, due, res.samples[i].lat, want)
		}
		if res.samples[i].lag < stall-due-5*time.Millisecond {
			t.Errorf("request %d: lag %v does not show the stall", i, res.samples[i].lag)
		}
	}
	if last := res.samples[39]; last.lat > 20*time.Millisecond {
		t.Errorf("the generator should have caught up by the last request, latency %v", last.lat)
	}
	_, late := res.lagMS()
	if late < 0.2 {
		t.Errorf("late fraction %g, want the stalled requests counted late", late)
	}

	// The same stall in a closed loop hides in one sample.
	closed := closedLoop(context.Background(), 150*time.Millisecond, 1, func(ctx context.Context, i int) error {
		if i > 0 {
			time.Sleep(time.Millisecond)
		}
		return send(ctx, i)
	})
	slow := 0
	for _, s := range closed.samples {
		if s.lat > 10*time.Millisecond {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop: %d slow samples, want 1", slow)
	}
}

func TestFailedRequestsMissTheLimit(t *testing.T) {
	res := openLoop(context.Background(), 1000, 100*time.Millisecond, 1, func(_ context.Context, i int) error {
		if i%2 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	lat := sorted(res.latenciesMS())
	if !math.IsInf(quantile(lat, 0.99), 1) {
		t.Fatalf("p99 with half the requests failed = %g, want +Inf", quantile(lat, 0.99))
	}
	if res.sustained(time.Second, 0.99) {
		t.Fatal("a step with failed requests counted as sustained")
	}
	if res.failures() != len(res.samples)/2 {
		t.Fatalf("failures = %d of %d", res.failures(), len(res.samples))
	}
}
