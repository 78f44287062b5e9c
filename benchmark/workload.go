package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what a workload run receives: the seed that generates its
// inputs, the measuring window, and where to report.
type env struct {
	seed   int64
	window time.Duration
	rec    *recorder // nil unless the run is traced
	small  bool      // tiny inputs and rates, for the smoke test
	dir    string    // scratch directory for store logs
	out    io.Writer // detail lines
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, "# "+format+"\n", args...)
}

// phase returns a fraction of the measuring window.
func (e *env) phase(frac float64) time.Duration {
	return time.Duration(frac * float64(e.window))
}

// outcome is what a workload run measured.
type outcome struct {
	setup      []float64 // seconds, one per set-up
	lat        []float64 // milliseconds; a failed operation reads +Inf
	tailCeil   float64   // the percentile latency_tail_ms reports
	throughput float64   // operations per second
	energy     float64   // mean energy cost Ec, recomputed by verify
	util       float64   // mean utilization rho, recomputed by verify
	attempted  int
	failed     int
	layers     map[string]float64 // per-layer metrics (traced runs)
}

func newOutcome(tailCeil float64) *outcome {
	return &outcome{tailCeil: tailCeil, layers: make(map[string]float64)}
}

// fail counts a failed operation or correctness gate.
func (o *outcome) fail(e *env, format string, args ...any) {
	o.failed++
	e.logf("FAIL "+format, args...)
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// setUp builds a workload's state setupReps times, timing each build,
// and returns the last. Each earlier build is released before the next
// starts, so set-up never holds two at once.
func setUp[T any](o *outcome, build func() (T, error), release func(T)) (T, error) {
	var cur T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(cur)
		}
		// Collect what earlier set-ups left behind, so every build, and
		// the measurement after the last, starts from the same heap
		// whatever the garbage collector happened to do before.
		runtime.GC()
		start := time.Now()
		st, err := build()
		if err != nil {
			return cur, fmt.Errorf("set-up: %w", err)
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		cur = st
	}
	runtime.GC()
	return cur, nil
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	cal  func(e *env) string // calibrated rates and durations, for the header
	run  func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = []workload{
	{name: "solve-large", why: whySolveLarge, cal: calSolveLarge, run: runSolveLarge},
	{name: "solve-portfolio", why: whyPortfolio, cal: calPortfolio, run: runPortfolio},
	{name: "serve-hot", why: whyServeHot, cal: func(e *env) string { return hotParams(e.small).describe(e.window) }, run: runServeHot},
	{name: "serve-churn", why: whyServeChurn, cal: func(e *env) string { return churnParams(e.small).describe(e.window) }, run: runServeChurn},
	{name: "campaign", why: whyCampaign, cal: calCampaign, run: runCampaign},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics a user of the scheduler sees. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"energy_cost_j", "J", "lower", 0.05},
	{"utilization", "fraction", "higher", 0.05},
}

// perLayer are the traced run's metrics, one layer each. A workload that
// does not exercise a layer reports its metrics as 0.
var perLayer = []metricDef{
	{name: "sched.timing.self_ms", unit: "ms", better: "lower"},
	{name: "sched.maxpower.self_ms", unit: "ms", better: "lower"},
	{name: "sched.minpower.self_ms", unit: "ms", better: "lower"},
	{name: "sched.timing.share", unit: "fraction", better: "lower"},
	{name: "sched.minpower.share", unit: "fraction", better: "lower"},
	{name: "sched.backtracks", unit: "count", better: "lower"},
	{name: "sched.spike_rounds", unit: "count", better: "lower"},
	{name: "sched.scans", unit: "count", better: "lower"},
	{name: "sched.moves", unit: "count", better: "higher"},
	{name: "sched.rejected", unit: "count", better: "lower"},
	{name: "sched.minpower.accept_ratio", unit: "fraction", better: "higher"},
	{name: "sched.portfolio.speedup", unit: "ratio", better: "higher"},
	{name: "power.build_us", unit: "us", better: "lower"},
	{name: "service.hits", unit: "count", better: "higher"},
	{name: "service.hits_l2", unit: "count", better: "higher"},
	{name: "service.misses", unit: "count", better: "lower"},
	{name: "service.joins", unit: "count", better: "higher"},
	{name: "service.evictions", unit: "count", better: "lower"},
	{name: "service.shed", unit: "count", better: "lower"},
	{name: "service.deadline_exceeded", unit: "count", better: "lower"},
	{name: "service.hit_rate", unit: "fraction", better: "higher"},
	{name: "service.compute_ms.timing", unit: "ms", better: "lower"},
	{name: "service.compute_ms.maxpower", unit: "ms", better: "lower"},
	{name: "service.compute_ms.minpower", unit: "ms", better: "lower"},
	{name: "service.queued_max", unit: "count", better: "lower"},
	{name: "store.get.count", unit: "count", better: "lower"},
	{name: "store.get_us_p50", unit: "us", better: "lower"},
	{name: "store.get_us_p99", unit: "us", better: "lower"},
	{name: "store.get.hit_ratio", unit: "fraction", better: "higher"},
	{name: "store.put.count", unit: "count", better: "lower"},
	{name: "store.put_us_p50", unit: "us", better: "lower"},
	{name: "store.put_us_p99", unit: "us", better: "lower"},
	{name: "store.bytes_written", unit: "bytes", better: "lower"},
	{name: "router.self_us_p50", unit: "us", better: "lower"},
	{name: "router.self_us_p99", unit: "us", better: "lower"},
	{name: "router.retries", unit: "count", better: "lower"},
	{name: "router.hedges", unit: "count", better: "lower"},
	{name: "client.overhead_us_p50", unit: "us", better: "lower"},
	{name: "web.schedule.span_us_p50", unit: "us", better: "lower"},
	{name: "web.schedule.span_us_p99", unit: "us", better: "lower"},
	{name: "web.problems.span_us_p50", unit: "us", better: "lower"},
	{name: "web.problems.span_us_p99", unit: "us", better: "lower"},
	{name: "web.encode_us", unit: "us", better: "lower"},
	{name: "spec.parse_us", unit: "us", better: "lower"},
	{name: "sim.pool_speedup", unit: "ratio", better: "higher"},
	{name: "sim.reschedules_per_run", unit: "count", better: "lower"},
	{name: "sim.verify_rejects", unit: "count", better: "lower"},
	{name: "sim.fallbacks", unit: "count", better: "lower"},
	{name: "sim.survival_rate", unit: "fraction", better: "higher"},
	{name: "sim.service.hit_rate", unit: "fraction", better: "higher"},
	{name: "sim.service.compute_share", unit: "fraction", better: "lower"},
	{name: "exec.replay_us", unit: "us", better: "lower"},
	{name: "verify.check_us", unit: "us", better: "lower"},
	{name: "verify.finish", unit: "tu", better: "lower"},
	{name: "loadgen.max_rate_rps", unit: "req/s", better: "higher"},
	{name: "loadgen.lag_ms_p99", unit: "ms", better: "lower"},
	{name: "loadgen.late_fraction", unit: "fraction", better: "lower"},
	{name: "trace.overhead", unit: "ratio", better: "higher"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// refusedMS is what a latency reads when the percentile falls on a
// failed or refused operation: far beyond any limit, but finite, so the
// result stays valid JSON.
const refusedMS = 1e9

// finish turns an outcome into the result line: the end-to-end metrics
// for an untraced run, the per-layer metrics for a traced one.
func finish(e *env, o *outcome) result {
	res := result{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: make(map[string]metricValue)}
	if e.rec != nil {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{finite(o.layers[m.name]), m.unit}
		}
		return res
	}
	lat := sorted(o.lat)
	q := tailQuantile(len(lat), o.tailCeil)
	if q < o.tailCeil {
		e.logf("WARN only %d samples: latency_tail_ms reports p%g, not p%g", len(lat), 100*q, 100*o.tailCeil)
	}
	e.logf("latency: n=%d p50=%.4f ms p%g=%.4f ms (%d samples beyond)", len(lat), quantile(lat, 0.5), 100*q, quantile(lat, q), beyond(len(lat), q))
	e.logf("setup_s samples: %v", o.setup)
	vals := map[string]float64{
		"setup_s":          median(o.setup),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_tail_ms":  quantile(lat, q),
		"throughput_ops_s": o.throughput,
		"peak_rss_mb":      peakRSSMiB(),
		"energy_cost_j":    o.energy,
		"utilization":      o.util,
	}
	for _, m := range endToEnd {
		v := vals[m.name]
		if math.IsInf(v, 1) {
			v = refusedMS
		}
		res.Metrics[m.name] = metricValue{finite(v), m.unit}
	}
	return res
}

// finite maps NaN (a metric with no samples) to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
