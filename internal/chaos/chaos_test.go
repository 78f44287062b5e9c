// Package chaos is the in-process chaos harness for the self-healing
// serving tier: it boots real shards (web server + service + store) on
// restartable listeners behind a real router, injects failures — kill,
// restart, drain, slowness, dead addresses — and asserts the tier's
// contract holds through them: zero non-injected errors, responses
// byte-identical to a single-process oracle, warm-started shards
// serving from their recovered store, and hinted handoff refilling an
// owner that missed writes while unavailable. The process-level
// variant (kill -9 against real processes) lives in
// scripts/chaos_smoke.sh; this package covers the same failure modes
// where -race can watch.
package chaos

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/model"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/web"
)

// shard is one restartable backend: a web server over a service with a
// persistent store, listening on a stable address so a restart comes
// back where the router expects it.
type shard struct {
	t    *testing.T
	addr string // stable host:port, reused across restarts
	path string // store log path, reused across restarts
	ts   *httptest.Server
	srv  *web.Server
	st   *store.Store
	// delay, when nonzero, stalls every /schedule response (an
	// injected slow shard for hedging tests).
	delay atomic.Int64
}

// startShard boots a shard. addr "" picks a fresh port; passing a
// previous shard's addr restarts "the same" shard (same identity, same
// store) after a kill.
func startShard(t *testing.T, addr, path string) *shard {
	t.Helper()
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Store: st})
	srv := web.NewServerWith(sched.Options{}, svc)
	srv.SetSpecStore(st)
	if _, err := srv.LoadPersistedProblems(); err != nil {
		t.Logf("spec load: %v", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /verify", srv.VerifyHandlerFunc)

	s := &shard{t: t, addr: addr, path: path, srv: srv, st: st}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := s.delay.Load(); d > 0 && strings.HasPrefix(r.URL.Path, "/schedule") {
			time.Sleep(time.Duration(d))
		}
		mux.ServeHTTP(w, r)
	})
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	ts := httptest.NewUnstartedServer(handler)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	s.ts = ts
	s.addr = ln.Addr().String()
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return s
}

func (s *shard) url() string { return "http://" + s.addr }

// kill stops the shard the hard way: connections are severed and the
// store is abandoned without Sync or Close, like a SIGKILL. Appended
// records are already in the page cache (each Put is a write(2)), so a
// restart on the same path warm-starts from them — the property the
// recovery tests pin down.
func (s *shard) kill() {
	s.ts.CloseClientConnections()
	s.ts.Close()
}

// restart boots a replacement shard on the same address and store.
func (s *shard) restart() *shard {
	return startShard(s.t, s.addr, s.path)
}

// chaosConfig is the aggressive router tuning every test uses: a fast
// prober so the tests converge in milliseconds, and enough retries to
// cover one dead shard.
func chaosConfig() router.Config {
	return router.Config{
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		FailThreshold:    2,
		RiseThreshold:    1,
		BreakerThreshold: 2,
		BreakerCooldown:  250 * time.Millisecond,
		Retries:          2,
		RetryBackoff:     2 * time.Millisecond,
	}
}

func newRouter(t *testing.T, cfg router.Config, backends ...string) (*router.Router, *httptest.Server) {
	t.Helper()
	rt, err := router.New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// backendState reads the router's health verdict for one backend URL.
func backendState(rt *router.Router, url string) string {
	for _, h := range rt.Health() {
		if h.Backend == url {
			return h.State
		}
	}
	return "unknown"
}

// pool generates n deterministic problems, skipping the occasional
// seed whose random power draw violates its own Pmax (uploads would
// reject it). n is chosen so every shard of a 2-shard tier owns at
// least one name with near-certainty (P[all on one shard] = 2^-(n-1)).
func pool(n int) []*model.Problem {
	ps := make([]*model.Problem, 0, n)
	for seed := int64(100); len(ps) < n; seed++ {
		p := benchkit.Generate(8, seed)
		p.Name = fmt.Sprintf("chaos-%02d", len(ps))
		if _, err := spec.ParseString(spec.Format(p)); err != nil {
			continue
		}
		ps = append(ps, p)
	}
	return ps
}

// register uploads every problem through the router (exercising
// registration replication) and onto the oracle directly.
func register(t *testing.T, routerURL string, oracle *web.Server, ps []*model.Problem) {
	t.Helper()
	for _, p := range ps {
		resp, err := http.Post(routerURL+"/problems", "text/plain", strings.NewReader(spec.Format(p)))
		if err != nil {
			t.Fatalf("register %s: %v", p.Name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: status %d", p.Name, resp.StatusCode)
		}
		if oracle != nil {
			oracle.Add(p)
		}
	}
}

// get fetches one schedule and returns "status\nbody".
func get(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := http.Get(base + "/schedule?problem=" + name + "&format=json")
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("get %s: %v", name, err)
	}
	return fmt.Sprintf("%d\n%s", resp.StatusCode, body)
}

// TestKillRestartRecovery is the core chaos scenario: kill a shard
// under traffic, assert the tier keeps answering every request
// byte-identically to a single-process oracle with zero errors, then
// restart the shard and assert it rejoins warm — re-registered from
// its persisted specs and serving L2 hits from the store it was killed
// over.
func TestKillRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	a := startShard(t, "", filepath.Join(dir, "a.log"))
	b := startShard(t, "", filepath.Join(dir, "b.log"))
	rt, rts := newRouter(t, chaosConfig(), a.url(), b.url())

	oracle := web.NewServer(sched.Options{})
	ots := httptest.NewServer(oracle.Handler())
	t.Cleanup(ots.Close)

	ps := pool(12)
	register(t, rts.URL, oracle, ps)

	// Phase 1: healthy tier. Every response must match the oracle.
	want := make(map[string]string, len(ps))
	for _, p := range ps {
		want[p.Name] = get(t, ots.URL, p.Name)
		if got := get(t, rts.URL, p.Name); got != want[p.Name] {
			t.Fatalf("healthy tier: %s differs from oracle\noracle:\n%s\ntier:\n%s", p.Name, want[p.Name], got)
		}
	}
	bOwned := b.srv.Service().Stats().Misses
	if bOwned == 0 {
		t.Fatalf("12 problems and shard b computed none of them; rendezvous split is broken")
	}

	// Phase 2: kill shard b and sweep immediately — before the prober
	// can react, so b's keys fail over through the retry path — then
	// sweep again after eviction, when rank-order skipping handles them
	// without ever touching the dead address. Both sweeps must stay
	// byte-identical to the oracle (a holds the replicated
	// registrations).
	b.kill()
	for _, p := range ps {
		if got := get(t, rts.URL, p.Name); got != want[p.Name] {
			t.Errorf("kill window: %s differs from oracle\noracle:\n%s\ntier:\n%s", p.Name, want[p.Name], got)
		}
	}
	if rt.Retries() == 0 {
		t.Error("no retries recorded while the dead shard was still in the live set; failover never engaged")
	}
	waitFor(t, "shard b marked down", 5*time.Second, func() bool {
		return backendState(rt, b.url()) == "down"
	})
	for _, p := range ps {
		if got := get(t, rts.URL, p.Name); got != want[p.Name] {
			t.Errorf("one shard down: %s differs from oracle\noracle:\n%s\ntier:\n%s", p.Name, want[p.Name], got)
		}
	}

	// Phase 3: restart shard b on the same address and store. It must
	// rejoin the live set, re-register its problems from the spec
	// store, and serve its keys as L2 hits from the log it was killed
	// over (appends were write(2)s — no fsync needed to survive a
	// process kill).
	b = b.restart()
	waitFor(t, "shard b marked up again", 5*time.Second, func() bool {
		return backendState(rt, b.url()) == "up"
	})
	for _, p := range ps {
		if got := get(t, rts.URL, p.Name); got != want[p.Name] {
			t.Errorf("after recovery: %s differs from oracle\noracle:\n%s\ntier:\n%s", p.Name, want[p.Name], got)
		}
	}
	if st := b.srv.Service().Stats(); st.HitsL2 == 0 {
		t.Errorf("revived shard b served no L2 hits (stats: %+v); warm start from the killed store failed", st)
	}
}

// TestDrainHandoff drains one shard (readiness flip, process alive)
// and asserts hinted handoff: the runner-up answers the drained
// owner's keys and ships it the records, so the owner's store is
// warmer when it returns than when it left.
func TestDrainHandoff(t *testing.T) {
	dir := t.TempDir()
	a := startShard(t, "", filepath.Join(dir, "a.log"))
	b := startShard(t, "", filepath.Join(dir, "b.log"))
	rt, rts := newRouter(t, chaosConfig(), a.url(), b.url())

	ps := pool(12)
	register(t, rts.URL, nil, ps)

	// Drain shard a: /readyz flips to 503, the prober evicts it, but
	// the process keeps serving — exactly the cmd/serve shutdown window.
	a.srv.SetReady(false)
	waitFor(t, "drained shard a marked down", 5*time.Second, func() bool {
		return backendState(rt, a.url()) == "down"
	})

	before := a.srv.Service().Stats()
	for _, p := range ps {
		got := get(t, rts.URL, p.Name)
		if !strings.HasPrefix(got, "200\n") {
			t.Fatalf("%s through drained tier: %s", p.Name, got[:3])
		}
	}
	// Shard b answered a's keys with X-Handoff-Owner set and ships the
	// records asynchronously; the drained-but-alive owner ingests them.
	waitFor(t, "handoff records received by drained owner", 5*time.Second, func() bool {
		return a.srv.Service().Stats().HandoffsReceived > before.HandoffsReceived
	})
	if got := b.srv.Service().Stats().HandoffsSent; got == 0 {
		t.Errorf("handoffs_sent=0 on the answering shard, want > 0")
	}
	if got := a.srv.Service().Stats().HandoffsRejected; got > 0 {
		t.Errorf("handoffs_rejected=%d on the owner; verified self-computed records must ingest cleanly", got)
	}

	// The handed-off records are real store entries: once a is ready
	// again, its own keys come back as L2 hits without recomputing.
	a.srv.SetReady(true)
	waitFor(t, "shard a marked up again", 5*time.Second, func() bool {
		return backendState(rt, a.url()) == "up"
	})
	preL2 := a.srv.Service().Stats().HitsL2
	for _, p := range ps {
		get(t, rts.URL, p.Name)
	}
	if got := a.srv.Service().Stats().HitsL2; got <= preL2 {
		t.Errorf("hits_l2 did not grow (%d -> %d) after handoff refill", preL2, got)
	}
}

// TestHedgingCoversSlowShard injects tail latency into one shard and
// asserts the router's hedge fires the rank-next replica and still
// returns correct bytes — the stall is bounded by HedgeAfter plus the
// fast replica's latency, not the slow shard's.
func TestHedgingCoversSlowShard(t *testing.T) {
	dir := t.TempDir()
	a := startShard(t, "", filepath.Join(dir, "a.log"))
	b := startShard(t, "", filepath.Join(dir, "b.log"))
	cfg := chaosConfig()
	cfg.HedgeAfter = 25 * time.Millisecond
	rt, rts := newRouter(t, cfg, a.url(), b.url())

	oracle := web.NewServer(sched.Options{})
	ots := httptest.NewServer(oracle.Handler())
	t.Cleanup(ots.Close)

	ps := pool(12)
	register(t, rts.URL, oracle, ps)
	for _, p := range ps {
		get(t, rts.URL, p.Name) // warm both shards' caches
	}

	// Shard a develops a 2s stall on /schedule (its /readyz stays
	// fast, so the prober keeps it UP — the regime hedging exists for).
	a.delay.Store(int64(2 * time.Second))
	start := time.Now()
	for _, p := range ps {
		want := get(t, ots.URL, p.Name)
		if got := get(t, rts.URL, p.Name); got != want {
			t.Errorf("hedged %s differs from oracle", p.Name)
		}
	}
	elapsed := time.Since(start)
	if rt.Hedges() == 0 {
		t.Error("hedges=0; the slow shard's keys were never hedged")
	}
	// 12 sequential requests against a 2s-stalled owner would take 8s+
	// even if only a third of the keys land on it; hedged, the whole
	// sweep finishes in fractions of that.
	if elapsed > 6*time.Second {
		t.Errorf("sweep took %v despite hedging (hedge-after %v)", elapsed, cfg.HedgeAfter)
	}
}

// TestBreakerOpensWithoutProber covers the passive path: no prober, a
// dead backend, and the per-backend circuit breaker as the only
// protection. The first sweep after the kill fails over through
// retries and opens the breaker; while it stays open the second sweep
// skips the dead shard at rank time and adds no retries — the case
// that fails with the breaker alone disabled. A revived backend must
// close it again through the half-open trial.
func TestBreakerOpensWithoutProber(t *testing.T) {
	dir := t.TempDir()
	a := startShard(t, "", filepath.Join(dir, "a.log"))
	b := startShard(t, "", filepath.Join(dir, "b.log"))
	cfg := router.Config{
		BreakerThreshold: 2,
		// Longer than both sweeps, so the second runs entirely under
		// the open breaker.
		BreakerCooldown: 2 * time.Second,
		Retries:         2,
		RetryBackoff:    time.Millisecond,
	}
	rt, rts := newRouter(t, cfg, a.url(), b.url())

	// 24 names: shard b owns at least BreakerThreshold of them with
	// near-certainty (P[fewer than 2] = 25 * 2^-24).
	ps := pool(24)
	register(t, rts.URL, nil, ps)

	b.kill()
	sweep := func(phase string) {
		for _, p := range ps {
			if got := get(t, rts.URL, p.Name); !strings.HasPrefix(got, "200\n") {
				t.Fatalf("%s: %s with shard b dead: %s", phase, p.Name, got[:3])
			}
		}
	}
	sweep("first sweep")
	if rt.Retries() == 0 {
		t.Fatal("first sweep after the kill recorded no retries; failover never engaged")
	}
	pre := rt.Retries()
	sweep("second sweep")
	if got := rt.Retries() - pre; got != 0 {
		t.Errorf("second sweep retried %d forwards; the open breaker should skip the dead shard at rank time", got)
	}

	b = b.restart()
	waitFor(t, "breaker closed after revival", 10*time.Second, func() bool {
		for _, p := range ps {
			get(t, rts.URL, p.Name) // traffic drives the half-open trial
		}
		for _, h := range rt.Health() {
			if h.Backend == b.url() {
				return !h.BreakerOpen
			}
		}
		return false
	})
}
