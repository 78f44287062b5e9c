package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request: lat is its latency from when it was due (open
// loop) or sent (closed loop) to completion, lag how late it was sent.
type sample struct {
	lat, lag time.Duration
	failed   bool
}

// loadResult is one load phase.
type loadResult struct {
	samples []sample
	offered float64       // requests/s; 0 for a closed loop
	elapsed time.Duration // start to last completion, at least the window
	unsent  int           // due requests dropped by the overrun cap
}

// sendFunc issues request i of a phase and reports whether it failed.
type sendFunc func(ctx context.Context, i int) error

// openLoop sends request i when it is due, at start + i/rate, for the
// window, from at most senders goroutines. A request's latency is timed
// from its due time, so a stall inflates every request queued behind it
// (no coordinated omission). A generator that falls behind keeps sending
// late requests until the window plus half of it has passed; requests
// still unsent then are counted, not sent, so an overloaded step cannot
// run away with the time budget.
func openLoop(ctx context.Context, rate float64, window time.Duration, senders int, send sendFunc) loadResult {
	total := int(rate * window.Seconds())
	stop := window + window/2
	var next atomic.Int64
	start := time.Now()
	res := runSenders(senders, func(out *[]sample) {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= total {
				return
			}
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				pace(d)
			} else if time.Since(start) > stop {
				return
			}
			sent := time.Now()
			err := send(ctx, i)
			*out = append(*out, sample{lat: time.Since(due), lag: sent.Sub(due), failed: err != nil})
		}
	})
	res.offered = rate
	res.unsent = total - len(res.samples)
	res.elapsed = max(time.Since(start), window)
	return res
}

// pace blocks the calling goroutine for d. time.Sleep wakes up to a
// millisecond late when the process is otherwise idle (the runtime's
// poller sleeps in whole milliseconds), which would show as generator
// lag at every rate; nanosleep overshoots by tens of microseconds.
func pace(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop keeps senders goroutines sending back to back for the
// window; each sends its next request only after the previous one
// completes.
func closedLoop(ctx context.Context, window time.Duration, senders int, send sendFunc) loadResult {
	var next atomic.Int64
	start := time.Now()
	res := runSenders(senders, func(out *[]sample) {
		for ctx.Err() == nil && time.Since(start) < window {
			i := int(next.Add(1) - 1)
			sent := time.Now()
			err := send(ctx, i)
			*out = append(*out, sample{lat: time.Since(sent), failed: err != nil})
		}
	})
	res.elapsed = time.Since(start)
	return res
}

// runSenders runs n sender loops, each appending to its own slice, and
// merges their samples once all have returned.
func runSenders(n int, loop func(out *[]sample)) loadResult {
	outs := make([][]sample, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			loop(&outs[w])
		}(w)
	}
	wg.Wait()
	var res loadResult
	for _, o := range outs {
		res.samples = append(res.samples, o...)
	}
	return res
}

// latenciesMS returns the phase's latencies in milliseconds; a failed
// request reads +Inf, so it misses any latency limit.
func (r loadResult) latenciesMS() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = ms(s.lat)
		if s.failed {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (r loadResult) failures() int {
	n := 0
	for _, s := range r.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// achieved is the completed request rate over the phase.
func (r loadResult) achieved() float64 {
	return float64(len(r.samples)-r.failures()) / r.elapsed.Seconds()
}

// lagMS returns the p99 send lag and the fraction of requests sent more
// than a millisecond after they were due.
func (r loadResult) lagMS() (p99, lateFrac float64) {
	if len(r.samples) == 0 {
		return 0, 0
	}
	lags := make([]float64, len(r.samples))
	late := 0
	for i, s := range r.samples {
		lags[i] = ms(s.lag)
		if s.lag > time.Millisecond {
			late++
		}
	}
	return quantile(sorted(lags), 0.99), float64(late) / float64(len(lags))
}

// sustained reports whether an open-loop step kept up with its offered
// rate: at least 95% of it achieved, the generator's lag bounded by the
// latency limit, and the tail within the limit (failed requests count
// as over it).
func (r loadResult) sustained(limit time.Duration, q float64) bool {
	lagP99, _ := r.lagMS()
	tail := quantile(sorted(r.latenciesMS()), q)
	return r.unsent == 0 && r.achieved() >= 0.95*r.offered && lagP99 <= ms(limit) && tail <= ms(limit)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
