package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/verify"
	"repro/internal/web"
)

const (
	whyServeHot   = "Zipf reads of 64 precomputed schedules through router and 2 shards: forwarding, HTTP, L1 lookup and JSON encoding, no scheduling"
	whyServeChurn = "reads, fresh-seed computes and uploads over 256 problems, 4x the L1: L2 rehydration, store write-through, spec parsing and max-power"
)

// serveParams calibrates a serving workload. Rates and shares were set
// once on a 2-vCPU host and are fixed from then on, so runs of two
// commits offer the same load.
//
// A run has two phases. In the closed loop, nproc callers each send
// their next request when the last one is answered; its latencies and
// throughput are the end-to-end metrics. The open-loop ladder then
// offers fixed rates, timing each request from when it was due, and
// finds the highest rate that meets the latency limit. On a shared
// 2-vCPU host the ladder's latencies moved by 13-30% (p50) and 70% and
// more (p99) between runs, against 5-10% for the closed loop, so the
// ladder is reported in detail lines and loadgen.* metrics but not
// bounded.
type serveParams struct {
	problems   int     // registered problems, ranked for the Zipf draw
	minN, maxN int     // their task counts, stepped evenly over the ranks
	cacheSize  int     // L1 entries per shard
	store      bool    // each shard keeps a log store (L2, spec persistence)
	mix        [3]int  // percent of reads, fresh-seed computes and uploads
	zipfS      float64 // Zipf skew of the problem draw

	closedFrac float64       // window share of the closed loop; the ladder's steps share the rest
	ladder     []float64     // open-loop rates in requests/s, ascending
	ref        int           // index in ladder of the reference rate
	limit      time.Duration // p99 limit of a sustained rate
}

func hotParams(small bool) serveParams {
	p := serveParams{
		problems: 64, minN: 20, maxN: 200, cacheSize: 1024, mix: [3]int{100, 0, 0}, zipfS: 1.1,
		closedFrac: 0.5, ladder: []float64{1000, 2000, 4000, 8000}, ref: 1, limit: 2 * time.Millisecond,
	}
	if small {
		p.problems, p.minN, p.maxN, p.ladder, p.ref = 8, 10, 30, []float64{40, 80}, 0
	}
	return p
}

func churnParams(small bool) serveParams {
	p := serveParams{
		problems: 256, minN: 20, maxN: 200, cacheSize: 32, store: true, mix: [3]int{65, 25, 10}, zipfS: 1.1,
		closedFrac: 0.5, ladder: []float64{400, 800, 1200}, ref: 0, limit: 50 * time.Millisecond,
	}
	if small {
		p.problems, p.minN, p.maxN, p.cacheSize, p.ladder = 12, 10, 30, 4, []float64{20, 40}
	}
	return p
}

// stepFrac is each ladder step's share of the window.
func (p serveParams) stepFrac() float64 { return (1 - p.closedFrac) / float64(len(p.ladder)) }

func (p serveParams) describe(window time.Duration) string {
	var rates []string
	for _, r := range p.ladder {
		rates = append(rates, fmt.Sprintf("%g", r))
	}
	return fmt.Sprintf("closed loop, %d callers, %.1fs; then open-loop ladder [%s] req/s, %.1fs each, reference %g req/s, limit p99 <= %v; %d problems of %d-%d tasks, Zipf s=%g; L1 %d/shard, store %v; mix read/fresh-seed/upload %d/%d/%d%%",
		senders(), p.closedFrac*window.Seconds(), strings.Join(rates, ", "), p.stepFrac()*window.Seconds(), p.ladder[p.ref], p.limit,
		p.problems, p.minN, p.maxN, p.zipfS, p.cacheSize, p.store, p.mix[0], p.mix[1], p.mix[2])
}

// senders bounds the load generator's goroutines and connections.
func senders() int { return runtime.NumCPU() }

// shard is one serve process's worth of layers, in process.
type shard struct {
	svc *service.Service
	web *web.Server
	st  *store.Store
	ts  *timedStore
	hs  *http.Server
	url string
}

// tier is a router in front of two shards on loopback, configured as
// cmd/router and cmd/serve configure them by default.
type tier struct {
	p      serveParams
	shards []*shard
	rt     *router.Router
	hs     *http.Server
	url    string
	client *http.Client
	dir    string
	wg     sync.WaitGroup

	reg   []*model.Problem // registered problems, as the shards parsed them
	specs []string         // their spec text
	canon [][]byte         // first served /schedule JSON of each
	qual  []verify.Metrics // its independently recomputed metrics
	check []float64        // verify.Check durations, microseconds
}

func startTier(e *env, p serveParams, dir string) (*tier, error) {
	t := &tier{p: p, dir: dir}
	var urls []string
	for k := 0; k < 2; k++ {
		sh, err := t.startShard(e, k)
		if err != nil {
			t.close()
			return nil, err
		}
		t.shards = append(t.shards, sh)
		urls = append(urls, sh.url)
	}
	rt, err := router.New(urls, router.Config{
		Client:           &http.Client{Timeout: 60 * time.Second},
		ProbeInterval:    time.Second,
		ProbeTimeout:     500 * time.Millisecond,
		ProbePath:        "/readyz",
		FailThreshold:    3,
		RiseThreshold:    2,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
		Retries:          1,
		RetryBackoff:     10 * time.Millisecond,
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.rt = rt
	var h http.Handler = rt.Handler()
	if e.rec != nil {
		h = traced(e.rec, func(*http.Request) string { return "router" }, h)
	}
	t.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 15 * time.Second,
		WriteTimeout: 120 * time.Second, IdleTimeout: 120 * time.Second}
	if t.url, err = t.serve(t.hs); err != nil {
		t.close()
		return nil, err
	}
	n := senders()
	t.client = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, IdleConnTimeout: 90 * time.Second,
	}}
	return t, nil
}

func (t *tier) startShard(e *env, k int) (*shard, error) {
	sh := &shard{}
	cfg := service.Config{CacheSize: t.p.cacheSize, DefaultTimeout: 30 * time.Second}
	if t.p.store {
		st, err := store.Open(filepath.Join(t.dir, fmt.Sprintf("shard-%d.log", k)), store.Options{})
		if err != nil {
			return nil, err
		}
		sh.st = st
		cfg.Store = st
		if e.rec != nil {
			sh.ts = &timedStore{st: st, rec: e.rec}
			cfg.Store = sh.ts
		}
	}
	sh.svc = service.New(cfg)
	sh.web = web.NewServerWith(sched.Options{}, sh.svc)
	sh.web.SetShardID(strconv.Itoa(k))
	switch {
	case sh.ts != nil:
		sh.web.SetSpecStore(sh.ts)
	case sh.st != nil:
		sh.web.SetSpecStore(sh.st)
	}
	h := sh.web.Handler()
	if e.rec != nil {
		h = traced(e.rec, webSpanName, h)
	}
	sh.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 15 * time.Second,
		WriteTimeout: 60 * time.Second, IdleTimeout: 120 * time.Second, MaxHeaderBytes: 1 << 20}
	var err error
	if sh.url, err = t.serve(sh.hs); err != nil {
		if sh.st != nil {
			sh.st.Close()
		}
		return nil, err
	}
	return sh, nil
}

// serve starts hs on a loopback port; close waits for it to stop.
func (t *tier) serve(hs *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		_ = hs.Serve(ln) // ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the tier down in the order cmd/serve drains: listeners,
// then in-flight computes, then the stores. It runs once the
// measurement is over, so its errors are dropped.
func (t *tier) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.hs != nil {
		_ = t.hs.Shutdown(ctx)
	}
	if t.rt != nil {
		t.rt.Close()
	}
	for _, sh := range t.shards {
		_ = sh.hs.Shutdown(ctx)
		_ = sh.svc.Drain(ctx)
		if sh.st != nil {
			_ = sh.st.Close()
		}
	}
	t.wg.Wait()
	if t.dir != "" {
		_ = os.RemoveAll(t.dir)
	}
}

// do issues one request to the router and reads the whole response.
func (t *tier) do(ctx context.Context, method, target, body string) (int, []byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	status, err := t.doInto(ctx, buf, method, target, body)
	return status, bytes.Clone(buf.Bytes()), err
}

// bufPool holds response buffers, so that the load generator adds as
// little garbage as it can to the collector it shares with the tier.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// doInto is do reading the response into buf, which it resets first.
func (t *tier) doInto(ctx context.Context, buf *bytes.Buffer, method, target, body string) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.url+target, rd)
	if err != nil {
		return 0, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// problemName names the problem of rank r.
func problemName(r int) string { return fmt.Sprintf("p%03d", r) }

// servedProblem generates the problem of rank r from generator seed
// base. Task counts step evenly over the ranks in a fixed stride, so the
// hottest ranks mix small and large problems. Attempt > 0 redraws a
// problem the pipeline found infeasible.
func servedProblem(base int64, p serveParams, r, attempt int) *model.Problem {
	n := p.minN
	if p.problems > 1 {
		n += (p.maxN - p.minN) * ((r * 37) % p.problems) / (p.problems - 1)
	}
	q := benchkit.Generate(n, base*1_000_003+int64(r)+int64(attempt)<<32)
	q.Name = problemName(r)
	return q
}

// load registers every problem through the router, as a client would,
// and fetches each schedule once. That first response is verified
// against the registered problem and kept: every later read of the same
// key must return exactly these bytes.
//
// The registered problems are a fixed corpus, like solve-large's: the
// per-request cost of a read depends on its problem's size, so the seed
// draws the request stream (which problems are read, the fresh seeds
// and the uploaded specs) rather than the corpus.
func (t *tier) load(ctx context.Context) error {
	const seed = 1
	n := t.p.problems
	t.reg, t.specs, t.canon, t.qual = make([]*model.Problem, n), make([]string, n), make([][]byte, n), make([]verify.Metrics, n)
	checks := make([]float64, n)
	err := parallel(n, senders(), func(r int) error {
		for attempt := 0; attempt < 4; attempt++ {
			text := spec.Format(servedProblem(seed, t.p, r, attempt))
			reg, err := spec.ParseString(text)
			if err != nil {
				return err
			}
			status, body, err := t.do(ctx, http.MethodPost, "/problems", text)
			if err != nil || status != http.StatusCreated {
				return fmt.Errorf("register %s: status %d: %v %s", reg.Name, status, err, body)
			}
			status, body, err = t.do(ctx, http.MethodGet, "/schedule?problem="+reg.Name+"&format=json", "")
			if err == nil && status == http.StatusUnprocessableEntity {
				continue // infeasible under its power budget: draw another
			}
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("schedule %s: status %d: %v %s", reg.Name, status, err, body)
			}
			start := time.Now()
			m, err := verifyServed(reg, body)
			checks[r] = us(time.Since(start))
			if err != nil {
				return fmt.Errorf("schedule %s: %w", reg.Name, err)
			}
			t.reg[r], t.specs[r], t.canon[r], t.qual[r] = reg, text, body, m
			return nil
		}
		return fmt.Errorf("problem %s: no feasible draw", problemName(r))
	})
	t.check = checks
	return err
}

// verifyServed parses a served schedule and checks it independently
// against the problem it was requested for.
func verifyServed(p *model.Problem, body []byte) (verify.Metrics, error) {
	s, err := spec.ParseScheduleJSON(p, body)
	if err != nil {
		return verify.Metrics{}, err
	}
	rep := verify.Check(p, s)
	return rep.Metrics, rep.Err()
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns
// the first error.
func parallel(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Request kinds of the serving mix.
const (
	kindRead   = iota // GET a registered problem's schedule (cache hit)
	kindFresh         // GET it under a fresh seed= (cold compute)
	kindUpload        // POST a fresh spec to /problems
)

type planned struct {
	kind uint8
	rank uint16
}

// traffic is a serving run's request stream: the n-th request sent, by
// any sender in any phase, is plan[n mod len(plan)], so the stream is a
// function of the seed alone.
type traffic struct {
	t       *tier
	e       *env
	plan    []planned
	uploads []string // upload specs without their "problem" line
	seq     atomic.Int64
	tracing atomic.Bool

	mu    sync.Mutex
	fresh []freshReply
	errs  []string
}

type freshReply struct {
	rank int
	body []byte
}

// planLen bounds the precomputed stream; longer runs wrap around it.
const planLen = 1 << 16

func newTraffic(e *env, p serveParams) *traffic {
	rng := rand.New(rand.NewSource(e.seed))
	zipf := rand.NewZipf(rng, p.zipfS, 1, uint64(p.problems-1))
	tr := &traffic{e: e, plan: make([]planned, planLen)}
	for i := range tr.plan {
		k := rng.Intn(100)
		kind := kindRead
		switch {
		case k >= p.mix[0]+p.mix[1]:
			kind = kindUpload
		case k >= p.mix[0]:
			kind = kindFresh
		}
		tr.plan[i] = planned{kind: uint8(kind), rank: uint16(zipf.Uint64())}
	}
	if p.mix[2] > 0 {
		// Uploads are smaller than the registered problems: each stays
		// registered, on two shards, for the rest of the run.
		up := p
		up.maxN = min(p.maxN, 80)
		for j := 0; j < 256; j++ {
			q := servedProblem(e.seed+1<<20, up, j%p.problems, j/p.problems)
			text := spec.Format(q)
			tr.uploads = append(tr.uploads, text[strings.IndexByte(text, '\n')+1:])
		}
	}
	return tr
}

// send issues the stream's next request and checks its answer: a read
// must return the bytes first served for its key, a fresh-seed compute
// is kept for verification after the run, an upload must register.
func (tr *traffic) send(ctx context.Context, _ int) error {
	n := tr.seq.Add(1) - 1
	req := tr.plan[n%planLen]
	name := problemName(int(req.rank))
	method, target, body := http.MethodGet, "/schedule?problem="+name+"&format=json", ""
	switch req.kind {
	case kindFresh:
		target += "&seed=" + strconv.FormatInt(n+1, 10)
	case kindUpload:
		method, target = http.MethodPost, "/problems"
		body = "problem up" + strconv.FormatInt(n, 10) + "\n" + tr.uploads[n%int64(len(tr.uploads))]
	}
	traced := tr.tracing.Load()
	if traced {
		sep := "?"
		if strings.Contains(target, "?") {
			sep = "&"
		}
		target += sep + traceParam + "=" + strconv.FormatInt(n+1, 10)
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	start := time.Now()
	status, err := tr.t.doInto(ctx, buf, method, target, body)
	if traced {
		tr.e.rec.record("client", uint64(n+1), start, time.Now())
	}
	data := buf.Bytes()
	switch {
	case err != nil:
	case req.kind == kindUpload && status != http.StatusCreated:
		err = fmt.Errorf("upload: status %d: %s", status, data)
	case req.kind != kindUpload && status != http.StatusOK:
		err = fmt.Errorf("%s: status %d: %s", target, status, data)
	case req.kind == kindRead && !bytes.Equal(data, tr.t.canon[req.rank]):
		err = fmt.Errorf("%s: response differs from the first one served", target)
	case req.kind == kindFresh:
		tr.mu.Lock()
		tr.fresh = append(tr.fresh, freshReply{rank: int(req.rank), body: bytes.Clone(data)})
		tr.mu.Unlock()
	}
	if err != nil {
		tr.mu.Lock()
		if len(tr.errs) < 5 {
			tr.errs = append(tr.errs, err.Error())
		}
		tr.mu.Unlock()
	}
	return err
}

// account adds a phase's requests to the outcome.
func (tr *traffic) account(o *outcome, res loadResult) {
	o.attempted += len(res.samples)
	if f := res.failures(); f > 0 {
		o.failed += f
		tr.mu.Lock()
		for _, msg := range tr.errs {
			tr.e.logf("FAIL %s", msg)
		}
		tr.errs = nil
		tr.mu.Unlock()
	}
}

// snap is a point-in-time reading of the tier's counters.
type snap struct {
	at      time.Time
	seq     int64
	svc     []service.Stats
	retries int64
	hedges  int64
	store   [4]int64 // gets, get hits, puts, bytes written
}

func (tr *traffic) snapshot() snap {
	s := snap{at: time.Now(), seq: tr.seq.Load(), retries: tr.t.rt.Retries(), hedges: tr.t.rt.Hedges()}
	for _, sh := range tr.t.shards {
		s.svc = append(s.svc, sh.svc.Stats())
		if ts := sh.ts; ts != nil {
			s.store[0] += ts.gets.Load()
			s.store[1] += ts.getHits.Load()
			s.store[2] += ts.puts.Load()
			s.store[3] += ts.bytes.Load()
		}
	}
	return s
}

func runServeHot(ctx context.Context, e *env) (*outcome, error) {
	return runServe(ctx, e, hotParams(e.small))
}

func runServeChurn(ctx context.Context, e *env) (*outcome, error) {
	return runServe(ctx, e, churnParams(e.small))
}

func runServe(ctx context.Context, e *env, p serveParams) (*outcome, error) {
	o := newOutcome(0.99)
	tr := newTraffic(e, p)
	k := 0
	t, err := setUp(o, func() (*tier, error) {
		k++
		t, err := startTier(e, p, filepath.Join(e.dir, fmt.Sprintf("tier-%d", k)))
		if err != nil {
			return nil, err
		}
		if err := t.load(ctx); err != nil {
			t.close()
			return nil, err
		}
		return t, nil
	}, (*tier).close)
	if err != nil {
		return nil, err
	}
	defer t.close()
	tr.t = t
	n := senders()

	if e.rec == nil {
		res := closedLoop(ctx, e.phase(p.closedFrac), n, tr.send)
		tr.account(o, res)
		o.lat, o.throughput = res.latenciesMS(), res.achieved()
	} else {
		// Half the closed loop untraced, half traced; the traced half
		// gives the per-layer numbers.
		base := closedLoop(ctx, e.phase(p.closedFrac/2), n, tr.send)
		tr.account(o, base)
		e.rec.on.Store(true)
		tr.tracing.Store(true)
		before := tr.snapshot()
		stopSampler := sampleQueued(t)
		res := closedLoop(ctx, e.phase(p.closedFrac/2), n, tr.send)
		o.layers["service.queued_max"] = float64(stopSampler())
		tr.layers(o, before, tr.snapshot())
		tr.account(o, res)
		o.lat, o.throughput = res.latenciesMS(), res.achieved()
		o.layers["trace.overhead"] = res.achieved() / base.achieved()
	}
	e.logf("closed loop: %d callers, %.1f req/s", n, o.throughput)

	var maxRate float64
	for i, rate := range p.ladder {
		res := openLoop(ctx, rate, e.phase(p.stepFrac()), n, tr.send)
		tr.account(o, res)
		lat := sorted(res.latenciesMS())
		lagP99, late := res.lagMS()
		ok := res.sustained(p.limit, 0.99)
		e.logf("step %g req/s: achieved %.1f req/s, n=%d p50=%.4f ms p99=%.4f ms, lag p99=%.4f ms, late %.4f, sustained=%v",
			rate, res.achieved(), len(lat), quantile(lat, 0.5), quantile(lat, 0.99), lagP99, late, ok)
		if ok {
			maxRate = rate
		}
		if i == p.ref {
			o.layers["loadgen.lag_ms_p99"] = lagP99
			o.layers["loadgen.late_fraction"] = late
		}
	}
	o.layers["loadgen.max_rate_rps"] = maxRate
	e.logf("max sustained rate: %g req/s (limit p99 <= %v)", maxRate, p.limit)
	if e.rec != nil {
		t.probe(e, o)
	}

	// Every fresh-seed compute was a first response for its key.
	for _, f := range tr.fresh {
		if _, err := verifyServed(t.reg[f.rank], f.body); err != nil {
			o.fail(e, "fresh-seed schedule for %s: %v", problemName(f.rank), err)
		}
	}
	var ec, rho, tau []float64
	for _, m := range t.qual {
		ec, rho, tau = append(ec, m.EnergyCost), append(rho, m.Utilization), append(tau, float64(m.Finish))
	}
	o.energy, o.util = mean(ec), mean(rho)
	o.layers["verify.finish"] = mean(tau)
	o.layers["verify.check_us"] = median(t.check)
	return o, nil
}

// sampleQueued polls the shards' admission queues until the returned
// stop function is called; stop returns the deepest queue seen.
func sampleQueued(t *tier) func() int {
	done := make(chan struct{})
	result := make(chan int, 1)
	go func() {
		peak := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
				for _, sh := range t.shards {
					peak = max(peak, sh.svc.Stats().Queued)
				}
			}
		}
	}()
	return func() int {
		close(done)
		return <-result
	}
}

// layers derives the per-layer metrics of the traced closed loop from
// the counter deltas and the spans recorded between two snapshots.
func (tr *traffic) layers(o *outcome, a, b snap) {
	var d service.Stats
	compute := map[string]int64{}
	for k := range b.svc {
		x, y := a.svc[k], b.svc[k]
		d.Hits += y.Hits - x.Hits
		d.HitsL2 += y.HitsL2 - x.HitsL2
		d.Misses += y.Misses - x.Misses
		d.Joins += y.Joins - x.Joins
		d.Evictions += y.Evictions - x.Evictions
		d.Shed += y.Shed - x.Shed
		d.DeadlineExceeded += y.DeadlineExceeded - x.DeadlineExceeded
		for bucket, ns := range y.ComputeNS {
			compute[bucket] += ns - x.ComputeNS[bucket]
		}
	}
	L := o.layers
	L["service.hits"] = float64(d.Hits)
	L["service.hits_l2"] = float64(d.HitsL2)
	L["service.misses"] = float64(d.Misses)
	L["service.joins"] = float64(d.Joins)
	L["service.evictions"] = float64(d.Evictions)
	L["service.shed"] = float64(d.Shed)
	L["service.deadline_exceeded"] = float64(d.DeadlineExceeded)
	if lookups := d.Hits + d.HitsL2 + d.Misses + d.Joins; lookups > 0 {
		L["service.hit_rate"] = float64(d.Hits+d.HitsL2) / float64(lookups)
	}
	for _, bucket := range []string{"timing", "maxpower", "minpower"} {
		L["service.compute_ms."+bucket] = float64(compute[bucket]) / 1e6
	}
	L["router.retries"] = float64(b.retries - a.retries)
	L["router.hedges"] = float64(b.hedges - a.hedges)
	L["store.get.count"] = float64(b.store[0] - a.store[0])
	if gets := b.store[0] - a.store[0]; gets > 0 {
		L["store.get.hit_ratio"] = float64(b.store[1]-a.store[1]) / float64(gets)
	}
	L["store.put.count"] = float64(b.store[2] - a.store[2])
	L["store.bytes_written"] = float64(b.store[3] - a.store[3])

	// Spans: request spans by trace ID, store spans by time.
	rec := tr.e.rec
	lo, hi := uint64(a.seq+1), uint64(b.seq)
	t0, t1 := a.at.Sub(rec.epoch).Nanoseconds(), b.at.Sub(rec.epoch).Nanoseconds()
	byTrace := map[uint64][]span{}
	var gets, puts []float64
	for _, s := range rec.snapshot() {
		switch {
		case s.Trace >= lo && s.Trace <= hi:
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		case s.Trace == 0 && s.Start >= t0 && s.End <= t1 && s.Name == "store.get":
			gets = append(gets, us(s.dur()))
		case s.Trace == 0 && s.Start >= t0 && s.End <= t1 && s.Name == "store.put":
			puts = append(puts, us(s.dur()))
		}
	}
	var self, over []float64
	webDur := map[string][]float64{}
	for _, spans := range byTrace {
		var client, rt *span
		var shards []span
		for i := range spans {
			switch s := &spans[i]; {
			case s.Name == "client":
				client = s
			case s.Name == "router":
				rt = s
			case strings.HasPrefix(s.Name, "web."):
				shards = append(shards, *s)
				webDur[s.Name] = append(webDur[s.Name], us(s.dur()))
			}
		}
		if rt == nil {
			continue
		}
		self = append(self, us(selfTime(*rt, shards)))
		if client != nil {
			over = append(over, us(client.dur()-rt.dur()))
		}
	}
	pct := func(name string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		s := sorted(xs)
		L[name+"_p50"] = quantile(s, 0.5)
		L[name+"_p99"] = quantile(s, 0.99)
	}
	pct("router.self_us", self)
	pct("web.schedule.span_us", webDur["web.schedule"])
	pct("web.problems.span_us", webDur["web.problems"])
	pct("store.get_us", gets)
	pct("store.put_us", puts)
	if len(over) > 0 {
		L["client.overhead_us_p50"] = median(over)
	}
}

// probe times, from outside, the calls a request makes below the web
// handler: the scheduler stages on a sample of the registered problems,
// encoding a served schedule, and parsing a spec upload.
func (t *tier) probe(e *env, o *outcome) {
	sample := evenly(len(t.reg), 8)
	insts := make([]instance, len(sample))
	var enc, parse float64
	for k, r := range sample {
		p := t.reg[r]
		insts[k] = instance{p: p}
		s, err := spec.ParseScheduleJSON(p, t.canon[r])
		if err != nil {
			o.fail(e, "schedule %s: %v", p.Name, err)
			continue
		}
		var encs, parses []float64
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			// Both calls succeeded on these inputs during set-up.
			_, _ = spec.FormatScheduleJSON(p, s)
			mid := time.Now()
			_, _ = spec.ParseString(t.specs[r])
			end := time.Now()
			e.rec.record("web.encode", 0, start, mid)
			e.rec.record("spec.parse", 0, mid, end)
			encs, parses = append(encs, us(mid.Sub(start))), append(parses, us(end.Sub(mid)))
		}
		enc += median(encs)
		parse += median(parses)
	}
	o.layers["web.encode_us"] = enc / float64(len(sample))
	o.layers["spec.parse_us"] = parse / float64(len(sample))
	probeStages(e, o, insts)
}
