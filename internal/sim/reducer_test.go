package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/service"
)

var failKinds = []string{FailTask, FailBattery, FailInfeasible, FailUnschedulable, FailRescheduleLimit}

// randResult draws a synthetic RunResult covering the reducer's whole
// input surface: survivals and every failure kind, deadline misses,
// zero and large finishes, and energy costs spanning ~6 orders of
// magnitude to spread across the sketch's bucket range.
func randResult(rng *rand.Rand) RunResult {
	r := RunResult{
		Seed:            rng.Int63(),
		Reschedules:     rng.Intn(8),
		Fallbacks:       rng.Intn(3),
		Waits:           rng.Intn(4),
		VerifyRejects:   rng.Intn(5),
		ConstraintDrops: rng.Intn(3),
		EnergyCost:      rng.ExpFloat64() * float64(int64(1)<<rng.Intn(20)),
		Finish:          model.Time(rng.Intn(100000)),
	}
	if rng.Float64() < 0.75 {
		r.Survived = true
		r.DeadlineMiss = rng.Float64() < 0.2
	} else {
		r.Failure = failKinds[rng.Intn(len(failKinds))]
	}
	return r
}

// TestReducerMergeLaw is the merge homomorphism the sharded campaign
// engine rests on: folding a result stream through any partition into
// private reducers and merging them — in any order — finalizes to the
// byte-identical summary of folding the whole stream into one reducer.
// The reducer accumulates in exact integers, so this holds exactly,
// not approximately.
func TestReducerMergeLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		results := make([]RunResult, n)
		whole := NewReducer()
		for i := range results {
			results[i] = randResult(rng)
			whole.Add(results[i])
		}
		want, err := whole.Finalize(42).JSON()
		if err != nil {
			t.Fatal(err)
		}

		k := 1 + rng.Intn(6)
		parts := make([]*Reducer, k)
		for i := range parts {
			parts[i] = NewReducer()
		}
		for _, res := range results {
			parts[rng.Intn(k)].Add(res)
		}
		rng.Shuffle(k, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		merged := parts[0]
		for _, p := range parts[1:] {
			merged.Merge(p)
		}
		got, err := merged.Finalize(42).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d (n=%d, k=%d): merged summary differs from whole fold:\n--- whole\n%s\n--- merged\n%s",
				trial, n, k, want, got)
		}
	}
}

// TestReducerWireRoundTrip locks the partial-campaign wire format: a
// reducer survives Wire -> JSON -> ReducerFromWire with its finalized
// summary byte-identical, including when the round-tripped halves are
// merged afterwards (the router's scatter-gather path).
func TestReducerWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b, whole := NewReducer(), NewReducer(), NewReducer()
	for i := 0; i < 400; i++ {
		res := randResult(rng)
		whole.Add(res)
		if i%2 == 0 {
			a.Add(res)
		} else {
			b.Add(res)
		}
	}
	roundTrip := func(r *Reducer) *Reducer {
		data, err := json.Marshal(r.Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w ReducerWire
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		return ReducerFromWire(w)
	}
	want, err := whole.Finalize(7).JSON()
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := roundTrip(a), roundTrip(b)
	ra.Merge(rb)
	got, err := ra.Finalize(7).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("wire round-trip + merge differs:\n--- direct\n%s\n--- round-tripped\n%s", want, got)
	}
}

// TestCampaignDeterministicAcrossWorkersAndShards is the sharding
// determinism guarantee end to end: every combination of worker-pool
// width {1,4,16} and contiguous seed-range shard count {1,2,3} — with
// shard reducers additionally pushed through the wire format, exactly
// as a scatter-gather coordinator would — produces byte-identical
// summary JSON.
func TestCampaignDeterministicAcrossWorkersAndShards(t *testing.T) {
	const runs = 24
	for _, tc := range faultedCampaigns(t) {
		var want []byte
		for _, workers := range []int{1, 4, 16} {
			for _, shards := range []int{1, 2, 3} {
				c := Campaign{
					Mission: tc.m,
					Faults:  tc.faults,
					Runs:    runs,
					Seed:    42,
					Svc:     service.New(service.Config{Workers: workers}),
				}
				var merged *Reducer
				lo := 0
				for s := 0; s < shards; s++ {
					hi := lo + runs/shards
					if s < runs%shards {
						hi++
					}
					red, err := c.ReduceRange(context.Background(), lo, hi)
					if err != nil {
						t.Fatalf("%s workers=%d shards=%d range [%d,%d): %v", tc.name, workers, shards, lo, hi, err)
					}
					red = ReducerFromWire(red.Wire())
					if merged == nil {
						merged = red
					} else {
						merged.Merge(red)
					}
					lo = hi
				}
				got, err := merged.Finalize(42).JSON()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(want, got) {
					t.Fatalf("%s workers=%d shards=%d summary differs:\n--- want\n%s\n--- got\n%s", tc.name, workers, shards, want, got)
				}
			}
		}
	}
}

// TestSketchQuantiles checks the log-bucket sketch's accuracy contract
// directly: quantiles land within one sub-bucket (relative error
// 2^-5) of the exact nearest-rank value, and min/max are exact.
func TestSketchQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s sketch
	vals := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * float64(int64(1)<<rng.Intn(24)))
		s.add(v)
		vals = append(vals, v)
	}
	sortInt64s(vals)
	for _, q := range []float64{0.5, 0.95} {
		idx := int(q * float64(len(vals)))
		if idx >= len(vals) {
			idx = len(vals) - 1
		}
		exact := float64(vals[idx])
		got := float64(s.quantile(q))
		lo, hi := exact*(1-1.0/32), exact*(1+1.0/32)+1
		if got < lo || got > hi {
			t.Errorf("quantile(%g) = %g, exact %g (allowed [%g, %g])", q, got, exact, lo, hi)
		}
	}
	if s.min != vals[0] || s.max != vals[len(vals)-1] {
		t.Errorf("min/max = %d/%d, exact %d/%d", s.min, s.max, vals[0], vals[len(vals)-1])
	}
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestReducerValidate checks that Validate accepts every reducer Add,
// Merge and the wire form build, and rejects each kind of inconsistent
// shard partial.
func TestReducerValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := NewReducer(), NewReducer()
	for i := 0; i < 200; i++ {
		a.Add(randResult(rng))
		b.Add(randResult(rng))
	}
	a.Merge(b)
	for name, r := range map[string]*Reducer{"empty": NewReducer(), "merged": a, "wire": ReducerFromWire(a.Wire())} {
		if err := r.Validate(); err != nil {
			t.Errorf("%s reducer: %v", name, err)
		}
	}
	good := a.Wire()
	poisons := map[string]func(w *ReducerWire){
		"negative counter":      func(w *ReducerWire) { w.Waits = -1 },
		"survived > runs":       func(w *ReducerWire) { w.Survived = w.Runs + 1 },
		"misses > survived":     func(w *ReducerWire) { w.DeadlineMisses = w.Survived + 1 },
		"failures sum":          func(w *ReducerWire) { w.Failures[FailTask]++ },
		"histogram runs":        func(w *ReducerWire) { w.RescheduleHist[0]++ },
		"histogram reschedules": func(w *ReducerWire) { w.Reschedules++ },
		"histogram overflow": func(w *ReducerWire) {
			w.RescheduleHist = append(w.RescheduleHist, math.MaxInt64/2, math.MaxInt64/2, 2)
		},
		"energy count":        func(w *ReducerWire) { w.Energy.Count++ },
		"finish bucket":       func(w *ReducerWire) { w.Finish.Buckets[0][1]++ },
		"bucket out of range": func(w *ReducerWire) { w.Energy.Buckets[0][0] = sketchBucketCount },
		"bucket negative":     func(w *ReducerWire) { w.Energy.Buckets[0][0] = -1 },
		"bucket order": func(w *ReducerWire) {
			w.Finish.Buckets[0], w.Finish.Buckets[1] = w.Finish.Buckets[1], w.Finish.Buckets[0]
		},
		"min > max": func(w *ReducerWire) { w.Finish.Min = w.Finish.Max + 1 },
	}
	for name, poison := range poisons {
		// Deep-copy good through JSON so each poison starts clean.
		data, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		var w ReducerWire
		if err := json.Unmarshal(data, &w); err != nil {
			t.Fatal(err)
		}
		poison(&w)
		if err := ReducerFromWire(w).Validate(); err == nil {
			t.Errorf("%s: poisoned partial validates", name)
		}
	}
}

// FuzzReducerWire feeds arbitrary JSON through the shard transport
// form. Decoding and Validate must never panic, and a partial that
// validates must survive a JSON round trip exactly, merge and finalize.
func FuzzReducerWire(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	r := NewReducer()
	for i := 0; i < 50; i++ {
		r.Add(randResult(rng))
	}
	seed, err := json.Marshal(r.Wire())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"runs":1,"reschedule_hist":[1],"energy":{"count":1,"buckets":[[2000,1]]},"failures":{"battery":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w ReducerWire
		if json.Unmarshal(data, &w) != nil {
			return
		}
		r := ReducerFromWire(w)
		if r.Validate() != nil {
			return
		}
		data, err := json.Marshal(r.Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w2 ReducerWire
		if err := json.Unmarshal(data, &w2); err != nil {
			t.Fatal(err)
		}
		back := ReducerFromWire(w2)
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped partial fails Validate: %v", err)
		}
		if !reflect.DeepEqual(r.Wire(), back.Wire()) {
			t.Fatalf("wire round trip differs:\n%+v\n%+v", r.Wire(), back.Wire())
		}
		want, err := r.Finalize(1).JSON()
		if err != nil {
			t.Fatal(err)
		}
		back.Merge(r)
		if _, err := back.Finalize(1).JSON(); err != nil {
			t.Fatal(err)
		}
		if got, err := r.Finalize(1).JSON(); err != nil || !bytes.Equal(want, got) {
			t.Fatalf("merging r into another reducer changed r: %v", err)
		}
	})
}
