// Package web serves power-aware schedules over HTTP: a browsable
// library of problems rendered as power-aware Gantt charts (SVG or
// ASCII), with stage-by-stage views of the pipeline. It is the
// read-only web counterpart of the paper's interactive design tool.
package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dot"
	"repro/internal/gantt"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/verify"
)

// Input bounds. Requests beyond them get a 400/413 with a JSON error
// body; bigger jobs belong on the CLI, not behind an HTTP timeout.
const (
	// maxSpecBytes bounds an uploaded spec document.
	maxSpecBytes = 1 << 20
	// maxSpecTasks bounds the task count of an uploaded problem.
	maxSpecTasks = 500
	// maxSpecMachines bounds the machine count of an uploaded problem;
	// the backtracker branches over machines, so this is a search-space
	// bound like maxSpecTasks, not a parser limit.
	maxSpecMachines = 16
	// maxSpecLevels bounds the DVS levels of any single task, for the
	// same reason.
	maxSpecLevels = 8
	// maxRestarts bounds the restarts= query knob; each restart is a
	// full pipeline run.
	maxRestarts = 64
	// maxWorkers bounds the workers= query knob; results are identical
	// for every value, so this only caps per-request goroutine fan-out.
	maxWorkers = 64
)

// Server hosts a library of named problems. All scheduling goes
// through a service.Service, so repeated and concurrent requests for
// the same schedule are served from the content-addressed cache.
// Every handler threads the request's context into the service:
// clients that disconnect or time out stop paying for compute, and the
// service's resilience layer (deadlines, admission control, panic
// containment) maps onto 504, 429+Retry-After, and 500 responses with
// JSON error bodies.
type Server struct {
	mu       sync.RWMutex
	problems map[string]*model.Problem
	opts     sched.Options
	svc      *service.Service
	shardID  string
	// notReady inverts readiness so the zero value serves: a fresh
	// server is ready until SetReady(false) starts a drain.
	notReady atomic.Bool
	// handoffSem bounds concurrent outbound hinted-handoff shipments.
	handoffSem chan struct{}
	// specStore persists uploaded specs so a restarted shard recovers
	// its registrations (nil = registrations are process-local).
	specStore SpecStore
}

// NewServer creates an empty server with the given scheduler options
// and its own private scheduling service.
func NewServer(opts sched.Options) *Server {
	return NewServerWith(opts, service.New(service.Config{}))
}

// NewServerWith creates a server on an existing scheduling service,
// for deployments that share one cache between components.
func NewServerWith(opts sched.Options, svc *service.Service) *Server {
	return &Server{
		problems:   make(map[string]*model.Problem),
		opts:       opts,
		svc:        svc,
		handoffSem: make(chan struct{}, maxHandoffShips),
	}
}

// Service returns the scheduling service backing the server.
func (s *Server) Service() *service.Service { return s.svc }

// Add registers a problem under its own name.
func (s *Server) Add(p *model.Problem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.problems[p.Name] = p
}

// Names lists registered problem names, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.problems))
	for n := range s.problems {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Handler returns the HTTP handler:
//
//	GET /                      problem index (HTML)
//	GET /schedule?problem=X    rendered schedule; optional stage=
//	                           timing|maxpower|minpower (default
//	                           minpower), format=svg|ascii|json|dot
//	                           (default svg), seed=N, restarts=N,
//	                           workers=N (restart fan-out; results are
//	                           identical for every value)
//	POST /schedule/batch       bulk scheduling: one JSON document of
//	                           items (registered names or inline
//	                           specs), one worker-pool pass, per-item
//	                           status in the response (see batch.go)
//	POST /problems             register a problem from a spec document
//	GET /simulate?problem=X    Monte-Carlo fault campaign; optional
//	                           n=, seed=, faults=, format=json|html
//	POST /simulate/campaign    body-driven campaign: inline specs,
//	                           large run counts, seed-range sharding
//	                           with mergeable reducer output (see
//	                           campaign.go)
//	GET /stats                 scheduling-service metrics (JSON)
//	GET /healthz               process liveness (always 200)
//	GET /readyz                readiness; 503 once a drain has begun
//	POST /store/put            hinted-handoff record ingestion from a
//	                           peer shard (verified before storing)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.index)
	mux.HandleFunc("GET /schedule", s.schedule)
	mux.HandleFunc("POST /schedule/batch", s.scheduleBatch)
	mux.HandleFunc("POST /problems", s.upload)
	mux.HandleFunc("GET /simulate", s.simulate)
	mux.HandleFunc("POST /simulate/campaign", s.simulateCampaign)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	mux.HandleFunc("POST /store/put", s.storePut)
	return mux
}

// SetReady flips the /readyz verdict. Serving starts ready; a graceful
// shutdown calls SetReady(false) first, so a router's health prober
// evicts the shard from the live set before connections start failing.
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports the current /readyz verdict.
func (s *Server) Ready() bool { return !s.notReady.Load() }

// healthz is process liveness: if this handler runs, the shard runs.
// It stays 200 through a drain — the process is alive while it
// finishes in-flight work; only /readyz flips.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyz is the shard's load-accepting verdict, the endpoint a
// router's active prober polls.
func (s *Server) readyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		writeJSONError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// StatsDoc is the /stats response: the service snapshot plus the
// serving-tier identity of this process, so a router aggregating
// shard stats can label each line.
type StatsDoc struct {
	ShardID string `json:"shard_id"`
	service.Stats
	// Campaign is the process-global campaign progress snapshot
	// (counters are cumulative across campaigns, like the rest).
	Campaign sim.ProgressStats `json:"campaign"`
}

// SetShardID labels this server's /stats responses (routers aggregate
// them per shard). The empty default is fine for single-node serving.
func (s *Server) SetShardID(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shardID = id
}

// stats serves the scheduling service's metrics snapshot as JSON.
func (s *Server) stats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	shard := s.shardID
	s.mu.RUnlock()
	data, err := json.MarshalIndent(StatsDoc{ShardID: shard, Stats: s.svc.Stats(), Campaign: sim.Progress()}, "", "  ")
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<html><head><title>impacct</title></head><body><h1>Power-aware schedules</h1><ul>")
	for _, n := range s.Names() {
		e := html.EscapeString(n)
		fmt.Fprintf(w, `<li>%s — <a href="/schedule?problem=%s">svg</a> | <a href="/schedule?problem=%s&format=ascii">ascii</a> | <a href="/schedule?problem=%s&format=dot">dot</a> | <a href="/simulate?problem=%s&format=html">simulate</a></li>`,
			e, e, e, e, e)
	}
	fmt.Fprint(w, "</ul></body></html>")
}

func (s *Server) lookup(name string) (*model.Problem, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.problems[name]
	return p, ok
}

func (s *Server) schedule(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	p, ok := s.lookup(q.Get("problem"))
	if !ok {
		writeJSONError(w, http.StatusNotFound, "unknown problem")
		return
	}
	opts := s.opts
	if seed := q.Get("seed"); seed != "" {
		v, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "bad seed")
			return
		}
		opts.Seed = v
	}
	if rs := q.Get("restarts"); rs != "" {
		v, err := strconv.Atoi(rs)
		if err != nil || v < 0 || v > maxRestarts {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad restarts (want 0..%d)", maxRestarts))
			return
		}
		opts.Restarts = v
	}
	if ws := q.Get("workers"); ws != "" {
		v, err := strconv.Atoi(ws)
		if err != nil || v < 0 || v > maxWorkers {
			writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad workers (want 0..%d)", maxWorkers))
			return
		}
		opts.Workers = v
	}

	stage, err := service.ParseStage(q.Get("stage"))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "bad stage")
		return
	}
	res, err := s.svc.ScheduleCtx(r.Context(), p, opts, stage)
	if err != nil {
		writeScheduleError(w, err)
		return
	}
	s.maybeShipHandoff(r, p, opts, stage, res)

	// Render against the effective problem: for heterogeneous runs the
	// bars and profiles must reflect the chosen machine/level delays and
	// powers, not the nominal ones. For degenerate problems this is the
	// compiled problem itself, so the rendered bytes are unchanged.
	ep := res.EffectiveProblem()
	switch q.Get("format") {
	case "", "svg":
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, gantt.New(ep, res.Schedule).SVG())
	case "ascii":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, gantt.New(ep, res.Schedule).ASCII(1))
	case "dot":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, dot.Scheduled(ep, res.Schedule))
	case "json":
		data, err := spec.FormatScheduleJSON(ep, res.Schedule)
		if err != nil {
			writeJSONError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	default:
		writeJSONError(w, http.StatusBadRequest, "bad format")
	}
}

// parseBoundedSpec reads a spec document from the request body under
// the input bounds: at most maxSpecBytes of spec (413 beyond that) and
// at most maxSpecTasks tasks (400). On error the response has already
// been written; callers just return.
func parseBoundedSpec(w http.ResponseWriter, r *http.Request) (*model.Problem, error) {
	p, err := spec.Parse(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("spec exceeds %d bytes", tooBig.Limit))
		} else {
			writeJSONError(w, http.StatusBadRequest, err.Error())
		}
		return nil, err
	}
	if err := checkSpecBounds(p); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return nil, err
	}
	return p, nil
}

func (s *Server) upload(w http.ResponseWriter, r *http.Request) {
	p, err := parseBoundedSpec(w, r)
	if err != nil {
		return // parseBoundedSpec wrote the response
	}
	if p.Name == "" {
		writeJSONError(w, http.StatusBadRequest, "spec must carry a problem name")
		return
	}
	// Reject specs whose schedules would be unverifiable garbage early:
	// a quick feasibility probe (through the service, so the result is
	// already cached when the problem is first rendered).
	if _, err := s.svc.ScheduleCtx(r.Context(), p, s.opts, service.StageTiming); err != nil {
		writeScheduleError(w, err)
		return
	}
	s.Add(p)
	s.persistSpec(p)
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "registered %s (%d tasks)\n", p.Name, len(p.Tasks))
}

// VerifyHandlerFunc is a standalone endpoint: POST a spec, get the
// scheduled-and-verified metrics as plain text. Useful for quick
// curl-based checks without registering anything.
func (s *Server) VerifyHandlerFunc(w http.ResponseWriter, r *http.Request) {
	p, err := parseBoundedSpec(w, r)
	if err != nil {
		return // parseBoundedSpec wrote the response
	}
	res, err := s.svc.ScheduleCtx(r.Context(), p, s.opts, service.StageMinPower)
	if err != nil {
		writeScheduleError(w, err)
		return
	}
	rep := verify.Check(res.EffectiveProblem(), res.Schedule)
	if !rep.OK() {
		writeJSONError(w, http.StatusInternalServerError, rep.Err().Error())
		return
	}
	fmt.Fprintf(w, "finish=%d peak=%.4g cost=%.4g util=%.4f\n",
		rep.Metrics.Finish, rep.Metrics.Peak, rep.Metrics.EnergyCost, rep.Metrics.Utilization)
}
