// Command serve hosts the schedule visualization server: the paper's
// built-in problems (the nine-task example and the Mars rover cases)
// plus any spec files given on the command line, browsable as
// power-aware Gantt charts.
//
//	serve -addr :8080 [spec files...]
//
// Then open http://localhost:8080/ — each problem links to SVG, ASCII,
// and DOT renderings; stage= and format= query parameters select
// pipeline stages. POST a spec document to /problems to register more.
//
// All scheduling runs through a shared service layer with a
// content-addressed result cache; its metrics are served as JSON at
// /stats and as expvar at /debug/vars (under "sched_service"). Pass
// -pprof to additionally mount net/http/pprof under /debug/pprof/ for
// CPU, heap, and contention profiling of a live server.
//
// Pass -cache-dir to back the in-memory cache with a persistent
// content-addressed store: results survive restarts (warm start), and
// the graceful drain flushes and fsyncs the store before exit. In a
// sharded deployment behind cmd/router, give each backend its own
// -shard-id (labels its /stats) and cache directory.
//
// The server is hardened for unattended operation: every request runs
// under a compute budget (-request-timeout), admission control sheds
// work beyond -queue with 429 + Retry-After, protocol timeouts bound
// slow clients, and SIGINT/SIGTERM drain in-flight requests and the
// worker pool before exit (-shutdown-timeout).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/paperex"
	"repro/internal/rover"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/web"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		seed         = flag.Int64("seed", 0, "random seed for the heuristics")
		restarts     = flag.Int("restarts", 0, "default restart portfolio size per schedule (0 = single run; requests may override with restarts=)")
		schedWorkers = flag.Int("sched-workers", 0, "concurrent restart workers inside each pipeline run; any value yields identical results (0 = GOMAXPROCS)")
		cacheSize    = flag.Int("cache", 1024, "schedule cache capacity in entries (negative disables)")
		cacheDir     = flag.String("cache-dir", "", "directory for the persistent result store (empty disables)")
		shardID      = flag.String("shard-id", "", "serving-tier shard label reported in /stats")
		workers      = flag.Int("workers", 0, "compute workers and batch bound (0 = GOMAXPROCS)")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")

		queue          = flag.Int("queue", 0, "admission-control wait queue (0 = 8x workers, negative = no queue)")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request compute budget (0 = none)")
		drainGrace     = flag.Duration("drain-grace", 0, "delay between flipping /readyz to 503 and closing the listener, so health probers evict this shard first")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http header read timeout")
		readTimeout       = flag.Duration("read-timeout", 15*time.Second, "http request read timeout")
		writeTimeout      = flag.Duration("write-timeout", 60*time.Second, "http response write timeout")
		idleTimeout       = flag.Duration("idle-timeout", 120*time.Second, "http keep-alive idle timeout")
		maxHeaderBytes    = flag.Int("max-header-bytes", 1<<20, "http header size cap")
		shutdownTimeout   = flag.Duration("shutdown-timeout", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()

	// The persistent store is per shard: distinct shards own distinct
	// key slices behind the router, so their log files never need to
	// merge, and a restart warm-starts from exactly its own slice.
	var st *store.Store
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			log.Fatalf("serve: cache dir: %v", err)
		}
		name := "results.log"
		if *shardID != "" {
			name = "shard-" + *shardID + ".log"
		}
		var err error
		st, err = store.Open(filepath.Join(*cacheDir, name), store.Options{})
		if err != nil {
			log.Fatalf("serve: open store: %v", err)
		}
		if n := st.RecoveredDrops(); n > 0 {
			log.Printf("serve: store recovery dropped %d corrupt record(s)", n)
		}
		fmt.Printf("store: %d warm entries (%d bytes)\n", st.Len(), st.Size())
	}

	cfg := service.Config{
		CacheSize:      *cacheSize,
		Workers:        *workers,
		MaxQueue:       *queue,
		DefaultTimeout: *requestTimeout,
	}
	if st != nil {
		cfg.Store = st
	}
	svc := service.New(cfg)
	svc.Publish("sched_service")
	srv := web.NewServerWith(sched.Options{Seed: *seed, Restarts: *restarts, Workers: *schedWorkers}, svc)
	srv.SetShardID(*shardID)
	srv.Add(paperex.Nine())
	for _, c := range rover.Cases {
		srv.Add(rover.BuildIteration(c, rover.Cold))
	}
	for _, path := range flag.Args() {
		p, err := impacct.ParseSpecFile(path)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		srv.Add(p)
	}
	// Registrations share the result store's log: uploads persist their
	// spec text, so a restarted shard re-registers everything it knew
	// and its warm L2 results stay addressable instead of 404ing.
	if st != nil {
		srv.SetSpecStore(st)
		n, err := srv.LoadPersistedProblems()
		if err != nil {
			log.Printf("serve: %v", err)
		}
		if n > 0 {
			fmt.Printf("store: re-registered %d persisted problem(s)\n", n)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /verify", srv.VerifyHandlerFunc)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if *pprofOn {
		// net/http/pprof registers on DefaultServeMux in its init;
		// explicit routes keep our mux (and its "/" handler) in charge.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		MaxHeaderBytes:    *maxHeaderBytes,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("serving %d problems on %s (metrics: /stats, /debug/vars)\n", len(srv.Names()), *addr)

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain

	// Flip readiness first and give health probers a beat to evict this
	// shard from the live set; requests then stop arriving *before* the
	// listener closes, instead of failing into it.
	srv.SetReady(false)
	if *drainGrace > 0 {
		fmt.Printf("serve: not ready, waiting %v for probers to notice\n", *drainGrace)
		time.Sleep(*drainGrace)
	}

	fmt.Println("serve: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("serve: http shutdown: %v", err)
	}
	if err := svc.Drain(sctx); err != nil {
		log.Printf("serve: worker drain: %v", err)
	}
	// Close after the drain: every write-through from in-flight work has
	// landed, so the final fsync makes the whole run's results durable
	// for the next warm start.
	if st != nil {
		if err := st.Close(); err != nil {
			log.Printf("serve: store close: %v", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}
