package router

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Config tunes a Router's failure-handling layer. The zero value keeps
// the router passive (no active prober, no hedging, one retry) so
// embedded uses — tests, single-shot tools — get the historical
// behaviour; cmd/router turns the active pieces on via flags.
type Config struct {
	// Client issues every proxied request. Nil selects one with a
	// 60-second serving-tier timeout.
	Client *http.Client

	// ProbeInterval is the period of the active health prober. Zero or
	// negative disables active probing: every backend is assumed UP and
	// only the per-backend circuit breakers react to forward failures.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default 500ms). A probe
	// that times out counts as a failure, which is how a SIGSTOPped or
	// livelocked shard — reachable but unresponsive — gets evicted.
	ProbeTimeout time.Duration
	// ProbePath is the endpoint probed on each backend (default
	// "/readyz"). Readiness rather than liveness is what routing wants:
	// a draining shard flips /readyz to 503 while /healthz stays 200,
	// so the prober evicts it before its listener closes and its keys
	// re-route with zero failed requests.
	ProbePath string
	// FailThreshold is how many consecutive probe failures mark a
	// backend DOWN (default 3).
	FailThreshold int
	// RiseThreshold is how many consecutive probe successes mark a DOWN
	// backend UP again (default 2) — the half-open recovery gate that
	// keeps a flapping shard from rejoining on one lucky probe.
	RiseThreshold int

	// BreakerThreshold is how many consecutive forward transport errors
	// open a backend's circuit breaker (default 3). The breaker is the
	// passive complement of the prober: it reacts between probes, from
	// real traffic, and needs no prober to be running at all.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects sends before
	// going half-open (default 2s). In half-open state requests flow
	// again; the first success closes the breaker, the first failure
	// re-opens it for another cooldown.
	BreakerCooldown time.Duration

	// Retries is how many additional replicas a failed forward, batch
	// item or campaign chunk walks down its live rank order (default
	// 1). Attempts after the first sleep a jittered exponential
	// backoff (RetryBackoff * 2^(attempt-1) * [0.5,1.5)).
	Retries int
	// RetryBackoff is the base backoff before a retry (default 10ms).
	// Negative disables sleeping entirely (tests).
	RetryBackoff time.Duration

	// HedgeAfter, when positive, arms tail hedging for body-less
	// forwards (GETs): if a candidate has not answered within this
	// duration the next live candidate is fired too and the first
	// success wins. The pipeline is deterministic, so both
	// answers are byte-identical and taking the earlier one is safe.
	HedgeAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.ProbePath == "" {
		c.ProbePath = "/readyz"
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RiseThreshold <= 0 {
		c.RiseThreshold = 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	return c
}

// health is one backend's failure-tracking state: the prober's
// UP/DOWN verdict and the circuit breaker fed by forward outcomes.
// Both influence routing the same way — an unavailable backend is
// skipped in rank order, never re-ranked, so two routers with the same
// view still place keys identically.
type health struct {
	mu sync.Mutex

	// Prober state machine: UP --FailThreshold consecutive probe
	// failures--> DOWN --RiseThreshold consecutive successes--> UP.
	down       bool
	probeFails int
	probeOKs   int
	probed     bool   // at least one probe has completed
	lastErr    string // last probe failure, for /stats

	// Breaker state: consecutive forward transport errors; while
	// now < openUntil the breaker is open and sends are rejected.
	// After openUntil it is half-open: sends flow, one success closes
	// it, one failure re-opens it.
	consecErrs int
	openUntil  time.Time
}

// canSend reports whether forwards may use this backend right now.
func (h *health) canSend(now time.Time, breakerThreshold int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.down {
		return false
	}
	if h.consecErrs >= breakerThreshold && now.Before(h.openUntil) {
		return false
	}
	return true
}

// recordForward feeds a forward outcome (transport success/failure)
// into the breaker.
func (h *health) recordForward(err error, threshold int, cooldown time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		h.consecErrs = 0
		return
	}
	h.consecErrs++
	if h.consecErrs >= threshold {
		h.openUntil = time.Now().Add(cooldown)
	}
}

// recordProbe feeds one probe outcome into the membership state
// machine and reports whether the backend's UP/DOWN verdict flipped.
func (h *health) recordProbe(err error, fail, rise int) (flipped bool, nowDown bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.probed = true
	if err != nil {
		h.lastErr = err.Error()
		h.probeOKs = 0
		h.probeFails++
		if !h.down && h.probeFails >= fail {
			h.down = true
			return true, true
		}
		return false, h.down
	}
	h.lastErr = ""
	h.probeFails = 0
	h.probeOKs++
	if h.down && h.probeOKs >= rise {
		h.down = false
		// A recovered backend deserves a fresh breaker too: its old
		// consecutive-error streak belongs to the previous incarnation.
		h.consecErrs = 0
		return true, false
	}
	return false, h.down
}

// BackendHealth is one backend's health snapshot in the router's
// /stats document.
type BackendHealth struct {
	Backend string `json:"backend"`
	// State is "up", "down", or "unprobed" (prober disabled or no
	// probe completed yet; treated as up for routing).
	State string `json:"state"`
	// BreakerOpen reports the passive circuit breaker's verdict.
	BreakerOpen bool   `json:"breaker_open"`
	ProbeError  string `json:"probe_error,omitempty"`
}

// Health snapshots every backend's membership and breaker state, in
// configured order.
func (rt *Router) Health() []BackendHealth {
	now := time.Now()
	out := make([]BackendHealth, len(rt.backends))
	for i := range rt.backends {
		h := rt.health[i]
		h.mu.Lock()
		state := "unprobed"
		if h.probed {
			if h.down {
				state = "down"
			} else {
				state = "up"
			}
		}
		out[i] = BackendHealth{
			Backend:     rt.backends[i].name,
			State:       state,
			BreakerOpen: h.consecErrs >= rt.cfg.BreakerThreshold && now.Before(h.openUntil),
			ProbeError:  h.lastErr,
		}
		h.mu.Unlock()
	}
	return out
}

// probeLoop runs the active prober for one backend until the router is
// closed. Each tick issues GET <backend><ProbePath> under ProbeTimeout;
// any transport error or non-200 status is a failure.
func (rt *Router) probeLoop(idx int) {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-t.C:
			rt.probeOnce(idx)
		}
	}
}

// probeOnce issues a single health probe against backend idx and feeds
// the result into its state machine. Split out so tests can drive the
// membership machine deterministically without a ticker.
func (rt *Router) probeOnce(idx int) {
	b := rt.backends[idx]
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	u := *b.url
	u.Path = strings.TrimSuffix(u.Path, "/") + rt.cfg.ProbePath
	err := func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
		if err != nil {
			return err
		}
		resp, err := rt.probeClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("probe status %d", resp.StatusCode)
		}
		return nil
	}()
	if flipped, nowDown := rt.health[idx].recordProbe(err, rt.cfg.FailThreshold, rt.cfg.RiseThreshold); flipped {
		if nowDown {
			rt.transitions.Add(1)
		} else {
			rt.transitions.Add(1)
			rt.recoveries.Add(1)
		}
	}
}

// liveOrder filters a rank order down to the backends that are
// currently sendable, preserving rank order (that preservation is what
// keeps two routers with the same health view placing keys
// identically). When every backend looks dead the full order is
// returned instead: with nothing to lose, trying beats failing fast,
// and an all-down verdict is more often a router-side network blip
// than a whole-tier outage.
func (rt *Router) liveOrder(order []int) []int {
	now := time.Now()
	out := make([]int, 0, len(order))
	for _, idx := range order {
		if rt.health[idx].canSend(now, rt.cfg.BreakerThreshold) {
			out = append(out, idx)
		}
	}
	if len(out) == 0 {
		return order
	}
	return out
}

// backoffSleep sleeps the jittered exponential backoff before retry
// attempt n (1-based), honouring context cancellation. The jitter
// decorrelates replica storms after a shard death; it perturbs only
// timing, never results, so determinism of responses is untouched.
func (rt *Router) backoffSleep(ctx context.Context, attempt int) {
	if rt.cfg.RetryBackoff <= 0 {
		return
	}
	d := rt.cfg.RetryBackoff << (attempt - 1)
	if max := 2 * time.Second; d > max {
		d = max
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}
