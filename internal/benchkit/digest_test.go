package benchkit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/sched"
)

// corpusDigest is the SHA-256 of every solve TestCorpusDigest runs. It
// was computed before the constraint graph became a single edge arena,
// and pins that the scheduler's output has not moved by one bit since:
// a change to the graph's storage, the adjacency order or the task
// choice order that alters a single start time, statistic, assignment
// or profile segment changes it.
const corpusDigest = "faf8e2b26eca08cdd24037d451b6817aaf8a7c7784e72b6138b35d73c488568a"

// TestCorpusDigest hashes (Start, Stats, Assignment, Profile.Segs) of
// the benchmark's solve-large corpus with and without compaction, of
// 32 portfolio-style instances (32 restarts, half on machines) and of
// 300 small problems through all three stages (a third on machines),
// and compares the digest with corpusDigest. Failed solves hash their
// error text.
func TestCorpusDigest(t *testing.T) {
	h := sha256.New()
	solve := func(name string, run func() (*sched.Result, error)) {
		res, err := run()
		fmt.Fprintf(h, "%s\n", name)
		if err != nil {
			fmt.Fprintf(h, "error %v\n", err)
			return
		}
		digestResult(h, res)
	}

	const largeCount, largeMinN, largeMaxN = 48, 500, 1000
	for i := 0; i < largeCount; i++ {
		n := largeMinN + (largeMaxN-largeMinN)*i/(largeCount-1)
		p := Generate(n, int64(i+1))
		for _, compact := range []bool{true, false} {
			opts := Options(n)
			opts.Compact = compact
			solve(fmt.Sprintf("large %d compact=%v", i, compact), func() (*sched.Result, error) {
				return sched.MinPower(p, opts)
			})
		}
	}

	const portfolioN, portfolioMachines = 50, 4
	for i := 0; i < 32; i++ {
		s := int64(1_000_003 + i)
		p := Generate(portfolioN, s)
		if i%2 == 1 {
			p = GenerateMachines(portfolioN, portfolioMachines, s)
		}
		opts := Options(portfolioN)
		opts.Restarts = 32
		opts.Workers = runtime.GOMAXPROCS(0)
		solve(fmt.Sprintf("portfolio %d", i), func() (*sched.Result, error) {
			return sched.MinPower(p, opts)
		})
	}

	for i := 0; i < 300; i++ {
		n := 4 + i%27
		seed := int64(i + 1)
		p := Generate(n, seed)
		if i%3 == 2 {
			p = GenerateMachines(n, 1+i%4, seed)
		}
		opts := sched.Options{Seed: seed, Compact: i%2 == 0, Restarts: 1 + i%3}
		solve(fmt.Sprintf("small %d timing", i), func() (*sched.Result, error) { return sched.Timing(p, opts) })
		solve(fmt.Sprintf("small %d maxpower", i), func() (*sched.Result, error) { return sched.MaxPower(p, opts) })
		solve(fmt.Sprintf("small %d minpower", i), func() (*sched.Result, error) { return sched.MinPower(p, opts) })
	}

	if got := fmt.Sprintf("%x", h.Sum(nil)); got != corpusDigest {
		t.Fatalf("corpus digest %s, want %s: some solve's output changed", got, corpusDigest)
	}
}

// digestResult writes the result's start times, work counters,
// assignment and power profile to h in a fixed binary layout.
func digestResult(h hash.Hash, r *sched.Result) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(r.Schedule.Start)))
	for _, s := range r.Schedule.Start {
		put(uint64(s))
	}
	st := r.Stats
	for _, v := range []int{st.Backtracks, st.SpikeRounds, st.Scans, st.Moves, st.Rejected} {
		put(uint64(v))
	}
	put(uint64(len(r.Assignment)))
	for _, c := range r.Assignment {
		put(uint64(c.Machine))
		put(uint64(c.Level))
	}
	put(uint64(len(r.Profile.Segs)))
	for _, s := range r.Profile.Segs {
		put(uint64(s.T0))
		put(uint64(s.T1))
		put(math.Float64bits(s.P))
	}
}
