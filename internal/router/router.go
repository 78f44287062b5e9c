// Package router is the thin serving-tier front: it spreads requests
// over N backend serve processes by consistent hashing of each
// request's content address, so every shard's caches (in-memory L1,
// persistent L2) see a stable slice of the key space and cache hits
// stay network-local.
//
// # Why rendezvous hashing
//
// The shard function is rendezvous (highest-random-weight) hashing:
// for a key k, every backend b gets the score
// SHA-256(b || 0x00 || k) and the highest score owns the key; the
// runner-up is the retry replica. Compared to a ring with virtual
// nodes, rendezvous needs no vnode-count tuning to reach uniform
// balance (every (backend, key) pair is an independent draw), has no
// state to persist or rebuild — the backend list is the whole
// configuration, so every router instance computes identical
// placements — and losing a backend remaps exactly the keys it owned,
// like a ring. Its O(N) score scan per lookup is irrelevant at
// serving-tier fan-outs (N is single-digit to low double-digit).
//
// The backends need no coordination layer on top: the scheduling
// pipeline is deterministic, so two shards given the same request
// compute byte-identical results. Routing is therefore purely an
// efficiency concern (cache locality), never a correctness one — a
// misrouted or failed-over request costs a cold compute, not a wrong
// answer.
//
// # Failure-aware membership
//
// On top of the static configured set the router maintains a live
// view: an active health prober (Config.ProbeInterval) walks each
// backend's readiness endpoint and a consecutive-failure /
// consecutive-success state machine marks backends DOWN and UP, while
// per-backend circuit breakers react to forward transport errors
// between probes. Ranking is always computed over the full configured
// set and unavailable backends are *skipped in rank order* — never
// re-ranked — so any two routers sharing a health view place keys
// identically, and a recovered backend slots back into exactly the
// keys it owned. Every failover is one walk down that live rank
// order: a failed attempt moves to the next replica under jittered
// exponential backoff, up to Config.Retries times, for single
// forwards, batch items and campaign chunks alike; optional tail
// hedging (Config.HedgeAfter) races a slow candidate against the
// next one and takes the first answer, which determinism guarantees
// is byte-identical to the one it raced. A forward that lands on a non-owner (failover, hedge,
// or a DOWN owner skipped at rank time) carries the owner's base URL
// in the X-Handoff-Owner header, so the answering shard can ship the
// computed record to the owner asynchronously — hinted handoff
// without a coordinator (see internal/web).
//
// Routing keys: requests that name a registered problem
// (GET /schedule, GET /simulate, POST /problems, POST /verify) hash
// "name/<problem>"; batch items carrying an inline spec hash
// "fp/<Problem.Fingerprint()>", the same content address the backend
// caches under. Unroutable inputs (malformed documents, missing
// parameters) hash the empty key so some deterministic backend
// produces the canonical error response.
package router

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spec"
	"repro/internal/web"
)

// Bounds mirrored from the backend contract (internal/web): the
// router enforces the same byte limits before buffering bodies.
const (
	maxSpecBytes  = 1 << 20
	maxBatchBytes = 8 << 20
	maxBatchItems = 256
)

// Router fans requests out to a fixed configured set of backend serve
// processes, tracking each backend's health to skip dead or draining
// shards. Create one with New; Close stops the prober.
type Router struct {
	backends []backend
	health   []*health
	cfg      Config
	client   *http.Client
	// probeClient issues health probes; separate from client so the
	// per-probe timeout (short) never fights the forward timeout
	// (long).
	probeClient *http.Client

	retries     atomic.Int64 // forwards retried on another replica
	hedges      atomic.Int64 // hedge requests fired
	transitions atomic.Int64 // UP<->DOWN membership flips
	recoveries  atomic.Int64 // DOWN->UP flips (subset of transitions)

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

type backend struct {
	name string // scoring identity: the normalized URL string
	url  *url.URL
}

// New creates a router over the given backend base URLs (e.g.
// "http://127.0.0.1:8081"). The zero Config keeps the router passive:
// no active prober, breakers only, one retry, no hedging.
func New(backendURLs []string, cfg Config) (*Router, error) {
	if len(backendURLs) == 0 {
		return nil, fmt.Errorf("router: no backends")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:         cfg,
		client:      cfg.Client,
		probeClient: &http.Client{Timeout: cfg.ProbeTimeout},
		probeStop:   make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, raw := range backendURLs {
		raw = strings.TrimSuffix(strings.TrimSpace(raw), "/")
		if raw == "" {
			continue
		}
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("router: bad backend url %q", raw)
		}
		if seen[raw] {
			return nil, fmt.Errorf("router: duplicate backend %q", raw)
		}
		seen[raw] = true
		rt.backends = append(rt.backends, backend{name: raw, url: u})
		rt.health = append(rt.health, &health{})
	}
	if len(rt.backends) == 0 {
		return nil, fmt.Errorf("router: no backends")
	}
	if cfg.ProbeInterval > 0 {
		for i := range rt.backends {
			rt.probeWG.Add(1)
			go rt.probeLoop(i)
		}
	}
	return rt, nil
}

// Close stops the active prober (if running). The router keeps
// forwarding afterwards; Close exists for orderly shutdown and tests.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() { close(rt.probeStop) })
	rt.probeWG.Wait()
}

// Retries reports how many forwards, sub-batches and campaign chunks
// were retried against another replica after a backend failed.
func (rt *Router) Retries() int64 { return rt.retries.Load() }

// Hedges reports how many hedge requests were fired against the
// next replica of a slow candidate.
func (rt *Router) Hedges() int64 { return rt.hedges.Load() }

// rank returns backend indices ordered by rendezvous score for key,
// highest first: rank[0] is the owner, rank[1] the retry replica. The
// order is always computed over the full configured set; health is
// applied by *skipping* entries afterwards (liveOrder), never by
// re-ranking, so placement agrees across routers and across time.
func (rt *Router) rank(key string) []int {
	type scored struct {
		score uint64
		idx   int
	}
	ss := make([]scored, len(rt.backends))
	for i, b := range rt.backends {
		h := sha256.New()
		io.WriteString(h, b.name)
		h.Write([]byte{0})
		io.WriteString(h, key)
		ss[i] = scored{score: binary.BigEndian.Uint64(h.Sum(nil)[:8]), idx: i}
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score > ss[b].score
		}
		return ss[a].idx < ss[b].idx
	})
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = s.idx
	}
	return out
}

// Handler returns the router's HTTP handler:
//
//	GET  /                 backend roster (HTML)
//	GET  /healthz          router process liveness (always 200)
//	GET  /readyz           readiness: 200 while at least one backend
//	                       is believed live, 503 otherwise
//	GET  /schedule         forwarded to the problem's shard
//	GET  /simulate         forwarded to the problem's shard
//	POST /problems         forwarded to the shard owning the spec's
//	                       name, then replicated to the runner-up so
//	                       failover finds the registration
//	POST /verify           forwarded to the owning shard
//	POST /schedule/batch   split per item across shards, one sub-batch
//	                       per shard, responses stitched in order
//	POST /simulate/campaign
//	                       inline-spec campaigns split into contiguous
//	                       seed sub-ranges across shards, reducers
//	                       merged in range order (byte-identical to a
//	                       single shard); everything else forwarded
//	GET  /stats            every shard's stats plus a summed
//	                       aggregate and the router's own health view
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", rt.index)
	mux.HandleFunc("GET /healthz", rt.healthz)
	mux.HandleFunc("GET /readyz", rt.readyz)
	mux.HandleFunc("GET /schedule", rt.byProblem)
	mux.HandleFunc("GET /simulate", rt.byProblem)
	mux.HandleFunc("POST /problems", rt.bySpecName)
	mux.HandleFunc("POST /verify", rt.byVerify)
	mux.HandleFunc("POST /schedule/batch", rt.batch)
	mux.HandleFunc("POST /simulate/campaign", rt.campaign)
	mux.HandleFunc("GET /stats", rt.stats)
	return mux
}

func (rt *Router) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<html><head><title>impacct router</title></head><body><h1>Serving tier</h1><ul>")
	for _, b := range rt.backends {
		fmt.Fprintf(w, "<li>%s</li>", html.EscapeString(b.name))
	}
	fmt.Fprint(w, `</ul><p><a href="/stats">aggregated stats</a></p></body></html>`)
}

// healthz is process liveness: if this handler runs, the router runs.
func (rt *Router) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// readyz is tier readiness: 200 while at least one backend is
// believed sendable, 503 when the whole tier looks down (a load
// balancer in front of several routers can then prefer a healthier
// one).
func (rt *Router) readyz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	for i := range rt.backends {
		if rt.health[i].canSend(now, rt.cfg.BreakerThreshold) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, "ready\n")
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, "no live backends")
}

// byProblem routes name-addressed GET endpoints.
func (rt *Router) byProblem(w http.ResponseWriter, r *http.Request) {
	key := ""
	if name := r.URL.Query().Get("problem"); name != "" {
		key = "name/" + name
	}
	rt.forward(w, r, key, nil)
}

// bySpecName routes spec-carrying POST endpoints by the problem name
// inside the document, so a follow-up GET /schedule?problem=<name>
// lands on the shard that registered it. Successful registrations are
// additionally replicated to the next live replica: registration is
// in-memory per shard, so without the copy a failover for the name
// would 404 on the runner-up exactly when the owner is down — the
// moment it is needed.
func (rt *Router) bySpecName(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	key := ""
	if len(body) <= maxSpecBytes {
		if p, err := spec.Parse(bytes.NewReader(body)); err == nil && p.Name != "" {
			key = "name/" + p.Name
		}
	}
	// Oversized or unparseable bodies still forward (key ""): the
	// owner of the empty key produces the canonical 413/400 bytes.
	status, answered := rt.forward(w, r, key, body)
	if key != "" && status >= 200 && status < 300 {
		rt.replicateRegistration(r, key, body, answered)
	}
}

// byVerify routes POST /verify by the spec's name. Verification is
// stateless, so no replication is needed.
func (rt *Router) byVerify(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	key := ""
	if len(body) <= maxSpecBytes {
		if p, err := spec.Parse(bytes.NewReader(body)); err == nil && p.Name != "" {
			key = "name/" + p.Name
		}
	}
	rt.forward(w, r, key, body)
}

// replicateRegistration best-effort copies a successful registration
// body to the live rank after answered, the backend that registered
// it. Ranks before answered failed this very upload (forward walks the
// live order), so the copy skips them: without a failover that is the
// runner-up, after one it is the next live replica rather than the
// dead owner. Registration is idempotent and deterministic, so the
// copy needs no acknowledgement protocol; a failed copy costs only a
// 404 on a later failover, which the client can retry after
// re-registering.
func (rt *Router) replicateRegistration(r *http.Request, key string, body []byte, answered int) {
	live := rt.liveOrder(rt.rank(key))
	for i, idx := range live[:len(live)-1] {
		if idx != answered {
			continue
		}
		target := live[i+1]
		resp, err := rt.send(context.WithoutCancel(r.Context()), target, target,
			http.MethodPost, r.URL.Path, "", r.Header.Get("Content-Type"), body)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort replica copy
			resp.Body.Close()
		}
		return
	}
}

// backendURL builds the proxied URL for backend idx.
func (rt *Router) backendURL(idx int, path, rawQuery string) string {
	u := *rt.backends[idx].url
	u.Path = strings.TrimSuffix(u.Path, "/") + path
	u.RawQuery = rawQuery
	return u.String()
}

// forward proxies one request along the key's live rank order, capped
// at Retries+1 candidates. The first candidate is launched at once;
// when an attempt fails and nothing else is in flight, the next one is
// launched after a jittered exponential backoff (an HTTP response of
// any status is a backend answer, not a backend failure, and is
// relayed as-is). For body-less requests with HedgeAfter set, a
// candidate still silent after HedgeAfter is raced against the next
// one and the first answer wins: determinism makes every replica's
// bytes identical, so hedging bounds tail latency without a
// consistency protocol. Losers are canceled and drained in the
// background. body is the pre-read request body for POSTs (nil = no
// body). Returns the status relayed to the client (0 if the client
// went away) and the backend that answered (-1 if none did).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) (status, answered int) {
	order := rt.rank(key)
	owner := order[0]
	cands := rt.liveOrder(order)
	if n := rt.cfg.Retries + 1; len(cands) > n {
		cands = cands[:n]
	}
	type answer struct {
		resp *http.Response
		err  error
		idx  int
	}
	ch := make(chan answer, len(cands))
	hedging := rt.cfg.HedgeAfter > 0 && body == nil
	var hedge <-chan time.Time
	launched, inflight := 0, 0
	ctx := r.Context()
	if hedging {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer func() {
			// Cancel the attempts still in flight and close whatever
			// responses they deliver anyway.
			cancel()
			go func(pending int) {
				for ; pending > 0; pending-- {
					if a := <-ch; a.resp != nil {
						a.resp.Body.Close()
					}
				}
			}(inflight)
		}()
	}
	launch := func() {
		idx := cands[launched]
		launched++
		inflight++
		attempt := func() {
			resp, err := rt.send(ctx, idx, owner, r.Method, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), body)
			ch <- answer{resp: resp, err: err, idx: idx}
		}
		hedge = nil
		if !hedging {
			attempt() // nothing to race, and ch has room: run it inline
			return
		}
		go attempt()
		if launched < len(cands) {
			hedge = time.After(rt.cfg.HedgeAfter)
		}
	}
	launch()

	var lastErr error
	for {
		select {
		case <-hedge:
			rt.hedges.Add(1)
			launch()
		case a := <-ch:
			inflight--
			if a.err == nil {
				copyResponse(w, a.resp)
				a.resp.Body.Close()
				return a.resp.StatusCode, a.idx
			}
			if r.Context().Err() != nil {
				writeError(w, web.StatusClientClosedRequest, "client closed request")
				return 0, -1
			}
			lastErr = a.err
			if inflight > 0 {
				continue
			}
			if launched == len(cands) {
				writeError(w, http.StatusBadGateway, fmt.Sprintf("all replicas failed: %v", lastErr))
				return http.StatusBadGateway, -1
			}
			rt.retries.Add(1)
			rt.backoffSleep(r.Context(), launched)
			launch()
		}
	}
}

// fanOut runs the jobs of a fan-out (batch sub-batches, campaign
// chunks) under forward's retry policy. cands[j] is job j's candidate
// backends, best first. Each round groups the pending jobs by their
// current candidate and calls try once per group, concurrently; the
// jobs of a group whose try failed move to their next candidate, for
// up to Retries rounds with a jittered backoff between rounds. Pending
// jobs stay in ascending order, so a group lists its jobs in request
// order. A job whose try answers a *refusal is final and not failed
// over. Returns each job's last error (nil once the job succeeded).
func (rt *Router) fanOut(ctx context.Context, cands [][]int, try func(b int, jobs []int) error) []error {
	errs := make([]error, len(cands))
	pending := make([]int, len(cands))
	for j := range pending {
		pending[j] = j
	}
	for round := 0; len(pending) > 0; round++ {
		if round > 0 {
			rt.backoffSleep(ctx, round)
		}
		groups := make(map[int][]int)
		for _, j := range pending {
			b := cands[j][round]
			groups[b] = append(groups[b], j)
		}
		var wg sync.WaitGroup
		for b, jobs := range groups {
			if round > 0 {
				rt.retries.Add(1)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := try(b, jobs)
				for _, j := range jobs {
					errs[j] = err
				}
			}()
		}
		wg.Wait()
		next := pending[:0]
		for _, j := range pending {
			var rf *refusal
			if errs[j] != nil && !errors.As(errs[j], &rf) && round < rt.cfg.Retries && round+1 < len(cands[j]) && ctx.Err() == nil {
				next = append(next, j)
			}
		}
		pending = next
	}
	return errs
}

// send issues one request to backend idx. It is the only place the
// router talks to a backend's serving endpoints, so it is also the
// only feed of the circuit breakers: a transport error counts against
// idx unless ctx was canceled first (a client that gave up or a hedge
// loser says nothing about the backend's health). A request landing on
// a non-owner (failover, hedge, or a DOWN owner skipped at rank time)
// carries the owner's base URL in X-Handoff-Owner so the answering
// backend can ship the owner its record (hinted handoff).
func (rt *Router) send(ctx context.Context, idx, owner int, method, path, rawQuery, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.backendURL(idx, path, rawQuery), rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if idx != owner {
		req.Header.Set(web.HandoffOwnerHeader, rt.backends[owner].name)
	}
	resp, err := rt.client.Do(req)
	if ctx.Err() == nil {
		rt.health[idx].recordForward(err, rt.cfg.BreakerThreshold, rt.cfg.BreakerCooldown)
	}
	return resp, err
}

// copyResponse relays a backend response verbatim (status, entity
// headers, body bytes).
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // headers already sent
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck // headers already sent
}
