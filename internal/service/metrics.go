package service

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// metrics is the service's counter set. Stats snapshots it into the
// one metrics schema, which /stats serves and Publish exports.
type metrics struct {
	hits      atomic.Int64 // L1 (in-memory LRU) cache hits
	hitsL2    atomic.Int64 // persistent-store hits rehydrated into L1
	misses    atomic.Int64 // computes (cache misses that started a flight)
	joins     atomic.Int64 // singleflight joins onto an in-flight compute
	evictions atomic.Int64 // LRU evictions
	inflight  atomic.Int64 // currently computing flights (gauge)
	storeErrs atomic.Int64 // persistent-store write-through failures

	// Failure-mode counters, per request: canceled requests, requests
	// whose deadline passed (before or during compute), requests shed
	// by admission control, and computes that panicked.
	canceled         atomic.Int64
	deadlineExceeded atomic.Int64
	shed             atomic.Int64
	panics           atomic.Int64

	// Hinted-handoff counters: records this shard shipped to an owner
	// after answering a failed-over request (and shipments that failed),
	// and records shipped *to* this shard that were accepted into the
	// store or rejected by validation.
	handoffsSent     atomic.Int64
	handoffSendErrs  atomic.Int64
	handoffsReceived atomic.Int64
	handoffsRejected atomic.Int64

	// computeNS is the cumulative compute time per pipeline stage.
	computeNS [StageMinPower + 1]atomic.Int64

	mu        sync.Mutex
	lastPanic string // last contained panic: value + stack (metrics only, never responses)
}

// countCtxErr buckets a request-terminating context error.
func (m *metrics) countCtxErr(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m.deadlineExceeded.Add(1)
	case errors.Is(err, context.Canceled):
		m.canceled.Add(1)
	}
}

// recordPanic counts a contained compute panic and captures its value
// and stack for /debug/vars. The stack stays in the metrics — the
// error surfaced to callers wraps ErrInternal without it.
func (m *metrics) recordPanic(v any, stack []byte) {
	m.panics.Add(1)
	m.mu.Lock()
	m.lastPanic = fmt.Sprintf("%v\n%s", v, stack)
	m.mu.Unlock()
}

// lastPanicSnapshot returns the captured stack of the most recent
// contained panic ("" when none).
func (m *metrics) lastPanicSnapshot() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastPanic
}

// Stats is a point-in-time snapshot of the service's metrics, shaped
// for JSON: the /stats document, also exported at /debug/vars.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Joins     int64 `json:"joins"`
	Evictions int64 `json:"evictions"`
	Inflight  int64 `json:"inflight"`
	Entries   int   `json:"entries"`
	// HitsL2 counts requests served by rehydrating a record from the
	// persistent store; StoreEntries/StoreBytes/StorePutErrors describe
	// that store (all zero when no store is configured).
	HitsL2         int64 `json:"hits_l2"`
	StoreEntries   int   `json:"store_entries"`
	StoreBytes     int64 `json:"store_bytes"`
	StorePutErrors int64 `json:"store_put_errors"`
	// StartTime is the service's creation time in Unix seconds;
	// UptimeSeconds is measured against the monotonic clock, so shard
	// uptimes stay comparable under wall-clock adjustments.
	StartTime     int64   `json:"start_time"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Canceled and DeadlineExceeded count requests terminated by their
	// context; Shed counts requests rejected by admission control;
	// Panics counts computes contained at the panic boundary. Queued is
	// the number of requests currently waiting for a compute slot.
	Canceled         int64 `json:"canceled"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Shed             int64 `json:"shed"`
	Panics           int64 `json:"panics"`
	Queued           int   `json:"queued"`
	// Hinted handoff: records shipped from this shard to an owner (and
	// shipment failures), and inbound records accepted or rejected.
	HandoffsSent      int64 `json:"handoffs_sent"`
	HandoffSendErrors int64 `json:"handoff_send_errors"`
	HandoffsReceived  int64 `json:"handoffs_received"`
	HandoffsRejected  int64 `json:"handoffs_rejected"`
	// ComputeNS is the cumulative compute time per pipeline stage in
	// nanoseconds, keyed by Stage.String(); a stage appears once it has
	// computed.
	ComputeNS map[string]int64 `json:"compute_ns"`
}

// Stats snapshots the metrics.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	entries := s.cache.len()
	queued := s.queued
	s.mu.Unlock()
	var storeEntries int
	var storeBytes int64
	if s.store != nil {
		storeEntries = s.store.Len()
		storeBytes = s.store.Size()
	}
	compute := make(map[string]int64)
	for stage := range s.met.computeNS {
		if ns := s.met.computeNS[stage].Load(); ns != 0 {
			compute[Stage(stage).String()] = ns
		}
	}
	return Stats{
		Hits:              s.met.hits.Load(),
		Misses:            s.met.misses.Load(),
		Joins:             s.met.joins.Load(),
		Evictions:         s.met.evictions.Load(),
		Inflight:          s.met.inflight.Load(),
		Entries:           entries,
		HitsL2:            s.met.hitsL2.Load(),
		StoreEntries:      storeEntries,
		StoreBytes:        storeBytes,
		StorePutErrors:    s.met.storeErrs.Load(),
		StartTime:         s.started.Unix(),
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Canceled:          s.met.canceled.Load(),
		DeadlineExceeded:  s.met.deadlineExceeded.Load(),
		Shed:              s.met.shed.Load(),
		Panics:            s.met.panics.Load(),
		Queued:            queued,
		HandoffsSent:      s.met.handoffsSent.Load(),
		HandoffSendErrors: s.met.handoffSendErrs.Load(),
		HandoffsReceived:  s.met.handoffsReceived.Load(),
		HandoffsRejected:  s.met.handoffsRejected.Load(),
		ComputeNS:         compute,
	}
}

// Add folds another snapshot into st, as a router aggregating its
// shards does. Counters and capacity gauges sum; StartTime keeps the
// earliest boot and UptimeSeconds the shortest uptime (the
// weakest-link warm-up age of the tier); ComputeNS merges per stage.
func (st *Stats) Add(s Stats) {
	st.Hits += s.Hits
	st.Misses += s.Misses
	st.Joins += s.Joins
	st.Evictions += s.Evictions
	st.Inflight += s.Inflight
	st.Entries += s.Entries
	st.HitsL2 += s.HitsL2
	st.StoreEntries += s.StoreEntries
	st.StoreBytes += s.StoreBytes
	st.StorePutErrors += s.StorePutErrors
	st.Canceled += s.Canceled
	st.DeadlineExceeded += s.DeadlineExceeded
	st.Shed += s.Shed
	st.Panics += s.Panics
	st.Queued += s.Queued
	st.HandoffsSent += s.HandoffsSent
	st.HandoffSendErrors += s.HandoffSendErrors
	st.HandoffsReceived += s.HandoffsReceived
	st.HandoffsRejected += s.HandoffsRejected
	if st.StartTime == 0 || (s.StartTime != 0 && s.StartTime < st.StartTime) {
		st.StartTime = s.StartTime
	}
	if st.UptimeSeconds == 0 || (s.UptimeSeconds != 0 && s.UptimeSeconds < st.UptimeSeconds) {
		st.UptimeSeconds = s.UptimeSeconds
	}
	if len(s.ComputeNS) > 0 && st.ComputeNS == nil {
		st.ComputeNS = make(map[string]int64)
	}
	for k, v := range s.ComputeNS {
		st.ComputeNS[k] += v
	}
}

// Publish exports the service's metrics under the given expvar name
// (visible at /debug/vars): the Stats document, recomputed on every
// read, plus last_panic, the stack of the most recent contained panic.
// It reports false when the name is already taken — expvar
// registration is process-global and permanent, so only the first
// service under a name wins.
func (s *Service) Publish(name string) bool {
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any {
		return struct {
			Stats
			LastPanic string `json:"last_panic"`
		}{s.Stats(), s.met.lastPanicSnapshot()}
	}))
	return true
}
