// Command router fronts a fleet of serve processes as one endpoint.
// It maps every request onto a backend by rendezvous-hashing the
// request's content address (problem name or spec fingerprint), so
// each backend's caches serve a stable slice of the key space;
// because the scheduling pipeline is deterministic, any backend can
// answer any request identically and routing is purely a cache-
// locality optimization — there is no replication protocol to run.
//
//	router -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Single requests (GET /schedule, GET /simulate, POST /problems,
// POST /verify) forward to the owning backend; a failure walks on down
// the key's live rendezvous rank order, up to -retries replicas with a
// jittered exponential backoff (-retry-backoff) before each, and
// -hedge-after races a slow GET against the next replica. POST
// /schedule/batch splits per item across shards and stitches the
// responses back in order; POST /simulate/campaign splits inline-spec
// campaigns into seed sub-ranges. Batch items and campaign chunks fail
// over under the same -retries and -retry-backoff. GET /stats
// aggregates every shard's metrics plus the router's health view.
//
// Membership is health-checked: an active prober polls each backend's
// /readyz every -probe-interval and a consecutive-failure /
// consecutive-success state machine (-fail-threshold /
// -rise-threshold) marks shards DOWN and UP; per-backend circuit
// breakers (-breaker-threshold, -breaker-cooldown) react to forward
// errors between probes. DOWN shards are skipped in rank order, so
// every router instance with the same view places keys identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		backends = flag.String("backends", "", "comma-separated backend base URLs (required)")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-backend request budget")

		probeInterval = flag.Duration("probe-interval", time.Second, "active health probe period (0 disables the prober)")
		probeTimeout  = flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe budget; a timeout counts as a failure")
		probePath     = flag.String("probe-path", "/readyz", "endpoint probed on each backend")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive probe failures that mark a backend DOWN")
		riseThreshold = flag.Int("rise-threshold", 2, "consecutive probe successes that mark a DOWN backend UP")

		breakerThreshold = flag.Int("breaker-threshold", 3, "consecutive forward errors that open a backend's circuit breaker")
		breakerCooldown  = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before the half-open trial")
		retries          = flag.Int("retries", 1, "additional replicas tried after a forward failure")
		retryBackoff     = flag.Duration("retry-backoff", 10*time.Millisecond, "base of the jittered exponential retry backoff")
		hedgeAfter       = flag.Duration("hedge-after", 0, "fire the rank-next replica if the owner has not answered within this duration (0 disables tail hedging)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http header read timeout")
		readTimeout       = flag.Duration("read-timeout", 15*time.Second, "http request read timeout")
		writeTimeout      = flag.Duration("write-timeout", 120*time.Second, "http response write timeout")
		idleTimeout       = flag.Duration("idle-timeout", 120*time.Second, "http keep-alive idle timeout")
		shutdownTimeout   = flag.Duration("shutdown-timeout", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()

	urls := strings.Split(*backends, ",")
	rt, err := router.New(urls, router.Config{
		Client:           &http.Client{Timeout: *timeout},
		ProbeInterval:    *probeInterval,
		ProbeTimeout:     *probeTimeout,
		ProbePath:        *probePath,
		FailThreshold:    *failThreshold,
		RiseThreshold:    *riseThreshold,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Retries:          *retries,
		RetryBackoff:     *retryBackoff,
		HedgeAfter:       *hedgeAfter,
	})
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	defer rt.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("routing %d backends on %s\n", len(urls), *addr)

	select {
	case err := <-errc:
		log.Fatalf("router: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain

	fmt.Println("router: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("router: http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("router: %v", err)
	}
}
