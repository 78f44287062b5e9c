package service

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/schedule"
)

// BlobStore is the persistent second-level cache interface, satisfied
// by *store.Store. The service treats it as a byte-addressed L2 under
// the in-memory LRU: on an L1 miss it probes the store before
// computing, and every clean compute is written through. Keys are the
// same content-addressed strings as the LRU's (problem fingerprint +
// stage + options digest), so a store outlives process restarts and
// can be consulted by any replica — the pipeline is deterministic, so
// a record written by one process is byte-for-byte the record any
// other process would have written.
type BlobStore interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte) error
	Len() int
	Size() int64
}

// storeKeyPrefix version-tags persisted records: any change to the
// record layout bumps it, so records an older build wrote simply miss
// and are recomputed — cold, never wrong.
const storeKeyPrefix = "sr2/"

// EncodeResult serializes a computed result into a store record: the
// bytes write-through stores and hinted handoff ships. A record holds
// only the plan's decisions, the data no one can re-derive from the
// problem, as one flat sequence of signed varints,
//
//	n | m | (machine level) x m | start x n | backtracks spikeRounds scans moves rejected
//
// where n is the task count and m is n for a heterogeneous problem, 0
// otherwise. Everything else a Result holds — the compiled problem,
// the effective task view, the power profile — is a function of these
// and the problem, and rehydration derives it exactly as the pipeline
// does, so a record cannot disagree with its own schedule.
func EncodeResult(res *sched.Result) []byte {
	b := binary.AppendVarint(nil, int64(len(res.Schedule.Start)))
	b = binary.AppendVarint(b, int64(len(res.Assignment)))
	for _, c := range res.Assignment {
		b = binary.AppendVarint(b, int64(c.Machine))
		b = binary.AppendVarint(b, int64(c.Level))
	}
	for _, t := range res.Schedule.Start {
		b = binary.AppendVarint(b, int64(t))
	}
	st := res.Stats
	for _, c := range [...]int{st.Backtracks, st.SpikeRounds, st.Scans, st.Moves, st.Rejected} {
		b = binary.AppendVarint(b, int64(c))
	}
	return b
}

// decodeResult rehydrates a store record into a *sched.Result for
// problem p. The problem is compiled afresh, the effective tasks are
// resolved from the stored assignment and the profile is rebuilt from
// them, the way the pipeline builds its own result, so a rehydrated
// result is indistinguishable from the original to every consumer.
//
// The record is untrusted bytes (a peer ships them through hinted
// handoff): every count must match the problem, an assignment must be
// present exactly when the problem is heterogeneous and name real
// choices, every task must run inside [0, model.MaxHorizon], counters
// are non-negative, and nothing may trail. Any failure returns an error
// and the caller treats the record as a store miss.
func decodeResult(p *model.Problem, data []byte) (*sched.Result, error) {
	comp, err := schedule.Compile(p.Clone())
	if err != nil {
		return nil, fmt.Errorf("service: rehydrate compile: %w", err)
	}
	n := len(comp.Prob.Tasks)
	r := recordReader{b: data}
	r.next("task count", n, n)
	var a model.Assignment
	if comp.Hetero {
		r.next("assignment length", n, n)
		a = make(model.Assignment, n)
		for i := range a {
			a[i].Machine = r.next("machine", -1, len(comp.Prob.Machines)-1)
			a[i].Level = r.next("level", 0, math.MaxInt)
		}
	} else {
		r.next("assignment length", 0, 0)
	}
	if r.err != nil {
		return nil, fmt.Errorf("service: decode result: %w", r.err)
	}
	tasks, err := comp.Prob.EffectiveTasks(a)
	if err != nil {
		return nil, fmt.Errorf("service: decode result: %w", err)
	}
	start := make([]model.Time, n)
	for i := range start {
		start[i] = r.next("start", 0, model.MaxHorizon-tasks[i].Delay)
	}
	var st sched.Stats
	for _, c := range [...]*int{&st.Backtracks, &st.SpikeRounds, &st.Scans, &st.Moves, &st.Rejected} {
		*c = r.next("counter", 0, math.MaxInt)
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("service: decode result: %w", r.err)
	}
	sigma := schedule.Schedule{Start: start}
	return &sched.Result{
		Compiled:   comp,
		Schedule:   sigma,
		Profile:    power.Build(tasks, sigma, comp.Prob.BasePower),
		Stats:      st,
		Tasks:      tasks,
		Assignment: a,
	}, nil
}

// recordReader reads a record's varints one at a time, each within
// bounds. The first failure sticks and turns every later read into a
// no-op, so a caller checks err once per stretch of reads.
type recordReader struct {
	b   []byte
	err error
}

// next reads one varint and refuses it outside [lo, hi].
func (r *recordReader) next(what string, lo, hi int) int {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.err = fmt.Errorf("record truncated or malformed at %s", what)
		return 0
	}
	r.b = r.b[k:]
	if v < int64(lo) || v > int64(hi) {
		r.err = fmt.Errorf("%s %d outside [%d, %d]", what, v, lo, hi)
		return 0
	}
	return int(v)
}
