package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// traceParam tags a traced request. The router forwards query strings
// verbatim and the shard handlers ignore unknown parameters, so the tag
// reaches every layer without changing a response byte or a cache key.
const traceParam = "bench_trace"

// span is one timed call into a layer. Trace groups the spans of one
// request; zero means the span belongs to no request (a store call
// made inside the service, a scheduler stage probe).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It records only
// while on, so one process can measure an untraced phase and a traced
// phase back to back.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active reports whether r is recording; a nil recorder never is.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// record stores a finished span.
func (r *recorder) record(name string, trace uint64, start, end time.Time) {
	s := span{ID: r.ids.Add(1), Trace: trace, Name: name, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the recorded spans with parents linked.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	linkParents(out)
	return out
}

// write stores the spans as one JSON document at path.
func (r *recorder) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	doc := map[string]any{"meta": meta, "spans": r.snapshot()}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// depth orders the layers a request crosses: the client calls the
// router, the router calls a shard's web handler.
func depth(name string) int {
	switch {
	case name == "client":
		return 0
	case name == "router":
		return 1
	case strings.HasPrefix(name, "web."):
		return 2
	}
	return -1
}

// linkParents sets each request span's parent to the deepest span of
// the same trace one layer up whose interval contains it.
func linkParents(spans []span) {
	byTrace := make(map[uint64][]int)
	for i, s := range spans {
		if s.Trace != 0 && depth(s.Name) >= 0 {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
		}
	}
	for _, idx := range byTrace {
		for _, c := range idx {
			child := spans[c]
			for _, p := range idx {
				par := spans[p]
				if depth(par.Name) == depth(child.Name)-1 && par.Start <= child.Start && child.End <= par.End {
					spans[c].Parent = par.ID
					break
				}
			}
		}
	}
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (a hedge, a
// replication after the forward); overlap is counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - time.Duration(covered)
}

// traceID extracts the bench_trace tag of a request (0 when absent).
func traceID(r *http.Request) uint64 {
	if !strings.Contains(r.URL.RawQuery, traceParam+"=") {
		return 0
	}
	id, _ := strconv.ParseUint(r.URL.Query().Get(traceParam), 10, 64)
	return id
}

// traced wraps a layer's handler so every tagged request records a span
// named by name(r).
func traced(rec *recorder, name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := traceID(r)
		if id == 0 || !rec.active() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.record(name(r), id, start, time.Now())
	})
}

// webSpanName names a shard span by endpoint: web.schedule, web.problems.
func webSpanName(r *http.Request) string {
	return "web." + strings.Trim(strings.ReplaceAll(r.URL.Path, "/", "."), ".")
}

// timedStore wraps the shard's log store: it is the service's L2
// (service.BlobStore) and the web server's spec store, and it passes
// PutIfChanged through so hinted handoff keeps deduplicating. While the
// recorder is active it records a span per call and counts the bytes
// each write appends.
type timedStore struct {
	st  *store.Store
	rec *recorder

	gets, getHits, puts, bytes atomic.Int64
}

func (t *timedStore) Get(key string) ([]byte, bool) {
	if !t.rec.active() {
		return t.st.Get(key)
	}
	start := time.Now()
	v, ok := t.st.Get(key)
	t.rec.record("store.get", 0, start, time.Now())
	t.gets.Add(1)
	if ok {
		t.getHits.Add(1)
	}
	return v, ok
}

func (t *timedStore) Put(key string, val []byte) error {
	if !t.rec.active() {
		return t.st.Put(key, val)
	}
	start := time.Now()
	err := t.st.Put(key, val)
	t.rec.record("store.put", 0, start, time.Now())
	t.countPut(key, val, err == nil)
	return err
}

func (t *timedStore) PutIfChanged(key string, val []byte) (bool, error) {
	if !t.rec.active() {
		return t.st.PutIfChanged(key, val)
	}
	start := time.Now()
	wrote, err := t.st.PutIfChanged(key, val)
	t.rec.record("store.put", 0, start, time.Now())
	t.countPut(key, val, wrote && err == nil)
	return wrote, err
}

// countPut counts one write and, when it appended, its record bytes
// (the 12-byte frame header plus key and value).
func (t *timedStore) countPut(key string, val []byte, appended bool) {
	t.puts.Add(1)
	if appended {
		t.bytes.Add(int64(12 + len(key) + len(val)))
	}
}

func (t *timedStore) ForEach(fn func(key string, val []byte) error) error { return t.st.ForEach(fn) }
func (t *timedStore) Len() int                                            { return t.st.Len() }
func (t *timedStore) Size() int64                                         { return t.st.Size() }
