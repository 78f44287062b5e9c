package service

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/paperex"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/store"
)

func testStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.log")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, path
}

func heteroProblem() *model.Problem {
	p := paperex.Nine().Clone()
	p.Name = "nine-hetero"
	p.Machines = []model.Machine{
		{Name: "fast", Speed: 2, PowerScale: 1.5},
		{Name: "slow", Speed: 1, PowerScale: 1},
	}
	p.Tasks[0].Levels = []model.DVSLevel{{Mult: 1, Power: p.Tasks[0].Power}, {Mult: 2, Power: p.Tasks[0].Power / 3}}
	return p
}

// sameResult asserts the fields service consumers read are identical
// between a computed and a rehydrated result.
func sameResult(t *testing.T, want, got *sched.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Schedule, got.Schedule) {
		t.Errorf("%s: schedule differs: %v vs %v", label, want.Schedule, got.Schedule)
	}
	if !reflect.DeepEqual(want.Profile, got.Profile) {
		t.Errorf("%s: profile differs", label)
	}
	if want.Stats != got.Stats {
		t.Errorf("%s: stats differ: %+v vs %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Tasks, got.Tasks) {
		t.Errorf("%s: effective tasks differ", label)
	}
	if !reflect.DeepEqual(want.Assignment, got.Assignment) {
		t.Errorf("%s: assignment differs: %v vs %v", label, want.Assignment, got.Assignment)
	}
	if want.Finish() != got.Finish() || want.Peak() != got.Peak() ||
		want.EnergyCost() != got.EnergyCost() || want.Utilization() != got.Utilization() {
		t.Errorf("%s: derived metrics differ", label)
	}
	wp, gp := want.EffectiveProblem(), got.EffectiveProblem()
	if !reflect.DeepEqual(wp.Tasks, gp.Tasks) {
		t.Errorf("%s: effective problem tasks differ", label)
	}
}

// TestStoreWriteThroughAndWarmStart computes through one service,
// then serves the same requests from a fresh service sharing only the
// on-disk store: every request must be an L2 hit yielding a result
// indistinguishable from the computed one — including heterogeneous
// problems, whose machine/level assignment rides in the record.
func TestStoreWriteThroughAndWarmStart(t *testing.T) {
	st, path := testStore(t)
	probs := []*model.Problem{paperex.Nine(), heteroProblem()}
	opts := sched.Options{Seed: 3, Restarts: 2}

	cold := New(Config{Store: st})
	want := make([]*sched.Result, len(probs))
	for i, p := range probs {
		r, err := cold.Schedule(p, opts, StageMinPower)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	cs := cold.Stats()
	if cs.Misses != int64(len(probs)) || cs.HitsL2 != 0 {
		t.Fatalf("cold stats: %+v", cs)
	}
	if cs.StoreEntries != len(probs) || cs.StoreBytes == 0 {
		t.Fatalf("write-through missing: %+v", cs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := New(Config{Store: st2})
	for i, p := range probs {
		r, err := warm.Schedule(p, opts, StageMinPower)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want[i], r, p.Name)
	}
	ws := warm.Stats()
	if ws.Misses != 0 || ws.HitsL2 != int64(len(probs)) {
		t.Fatalf("warm start did not serve from the store: %+v", ws)
	}
	// Second round: now in L1, the store untouched.
	for _, p := range probs {
		if _, err := warm.Schedule(p, opts, StageMinPower); err != nil {
			t.Fatal(err)
		}
	}
	ws = warm.Stats()
	if ws.Hits != int64(len(probs)) || ws.HitsL2 != int64(len(probs)) {
		t.Fatalf("L1 did not absorb the second round: %+v", ws)
	}
}

// TestStoreKeySeparation: distinct options and stages must land in
// distinct store records, never rehydrate into each other.
func TestStoreKeySeparation(t *testing.T) {
	st, _ := testStore(t)
	svc := New(Config{Store: st})
	p := paperex.Nine()
	a, err := svc.Schedule(p, sched.Options{Seed: 1}, StageMinPower)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Schedule(p, sched.Options{Seed: 1}, StageTiming); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Schedule(p, sched.Options{Seed: 2}, StageMinPower); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 {
		t.Fatalf("store has %d records, want 3", st.Len())
	}
	// A fresh service over the same store must resolve the original
	// (options, stage) pair to the original result.
	svc2 := New(Config{Store: st})
	b, err := svc2.Schedule(p, sched.Options{Seed: 1}, StageMinPower)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, a, b, "seed1-minpower")
}

// TestStoreCorruptRecordDegradesToMiss: a record that fails to decode
// is recomputed, not served.
func TestStoreCorruptRecordDegradesToMiss(t *testing.T) {
	st, _ := testStore(t)
	p := paperex.Nine()
	key := storeKeyPrefix + Key(p, sched.Options{}, StageMinPower)
	if err := st.Put(key, []byte("not a store record")); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Store: st})
	if _, err := svc.Schedule(p, sched.Options{}, StageMinPower); err != nil {
		t.Fatal(err)
	}
	s := svc.Stats()
	if s.HitsL2 != 0 || s.Misses != 1 {
		t.Fatalf("corrupt record was served: %+v", s)
	}
}

// TestStoreConcurrentWriteThroughHammer is the -race gate for the
// L1+L2 stack: many goroutines hammer overlapping problems through a
// tiny L1 (to force L2 traffic) and a shared store.
func TestStoreConcurrentWriteThroughHammer(t *testing.T) {
	st, _ := testStore(t)
	svc := New(Config{Store: st, CacheSize: 2, Workers: 4})
	probs := make([]*model.Problem, 6)
	for i := range probs {
		p := paperex.Nine().Clone()
		p.Name = fmt.Sprintf("hammer-%d", i)
		probs[i] = p
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p := probs[(w+i)%len(probs)]
				if _, err := svc.Schedule(p, sched.Options{}, StageTiming); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := svc.Stats()
	if s.StoreEntries != len(probs) {
		t.Fatalf("store entries = %d, want %d", s.StoreEntries, len(probs))
	}
	if s.HitsL2 == 0 {
		t.Fatalf("tiny L1 never fell through to the store: %+v", s)
	}
	if s.StorePutErrors != 0 {
		t.Fatalf("write-through errors: %+v", s)
	}
}

// computed runs the pipeline on p the way a shard would before writing
// its record through.
func computed(t testing.TB, p *model.Problem) *sched.Result {
	t.Helper()
	res, err := New(Config{}).Schedule(p, sched.Options{}, StageMinPower)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecodeResultRefuses walks the decoder's bounds: each record is
// the pipeline's own result with one field broken, and each must be
// refused, while the unbroken record rehydrates to the original.
func TestDecodeResultRefuses(t *testing.T) {
	nine, hetero := paperex.Nine(), heteroProblem()
	for _, p := range []*model.Problem{nine, hetero} {
		want := computed(t, p)
		got, err := decodeResult(p, EncodeResult(want))
		if err != nil {
			t.Fatalf("%s: valid record refused: %v", p.Name, err)
		}
		sameResult(t, want, got, p.Name)
	}

	broken := func(p *model.Problem, edit func(*sched.Result)) []byte {
		res := *computed(t, p)
		res.Schedule.Start = append([]model.Time(nil), res.Schedule.Start...)
		res.Assignment = res.Assignment.Clone()
		edit(&res)
		return EncodeResult(&res)
	}
	valid := EncodeResult(computed(t, nine))
	cases := []struct {
		name string
		p    *model.Problem
		data []byte
	}{
		{"empty", nine, nil},
		{"truncated", nine, valid[:len(valid)-1]},
		{"trailing bytes", nine, append(append([]byte(nil), valid...), 0)},
		{"count above the task count", nine, broken(nine, func(r *sched.Result) {
			r.Schedule.Start = append(r.Schedule.Start, 0)
		})},
		{"count below the task count", nine, broken(nine, func(r *sched.Result) {
			r.Schedule.Start = r.Schedule.Start[:len(r.Schedule.Start)-1]
		})},
		{"assignment on a degenerate problem", nine, broken(nine, func(r *sched.Result) {
			r.Assignment = make(model.Assignment, len(r.Schedule.Start))
		})},
		{"no assignment on a heterogeneous problem", hetero, broken(hetero, func(r *sched.Result) {
			r.Assignment = nil
		})},
		{"unknown machine", hetero, broken(hetero, func(r *sched.Result) {
			r.Assignment[0].Machine = len(hetero.Machines)
		})},
		{"unknown level", hetero, broken(hetero, func(r *sched.Result) {
			r.Assignment[0].Level = 2
		})},
		{"negative counter", nine, broken(nine, func(r *sched.Result) {
			r.Stats.Moves = -1
		})},
		{"negative start", nine, broken(nine, func(r *sched.Result) {
			r.Schedule.Start[0] = -1
		})},
		{"start past the horizon", nine, broken(nine, func(r *sched.Result) {
			r.Schedule.Start[0] = model.MaxHorizon - nine.Tasks[0].Delay + 1
		})},
	}
	for _, tc := range cases {
		if _, err := decodeResult(tc.p, tc.data); err == nil {
			t.Errorf("%s: record accepted", tc.name)
		}
	}
}

// TestStoreSkipsPlanPastHorizon: a plan whose task runs past
// model.MaxHorizon has no record the decoder would accept, so it is
// never written through — not rewritten on every recompute.
func TestStoreSkipsPlanPastHorizon(t *testing.T) {
	st, _ := testStore(t)
	p := &model.Problem{Name: "long", Tasks: []model.Task{{Name: "a", Resource: "R", Delay: model.MaxHorizon + 1, Power: 1}}}
	if _, err := New(Config{Store: st}).Schedule(p, sched.Options{}, StageMinPower); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d records for a plan past the horizon, want 0", st.Len())
	}
}

// TestIngestHandoffStoresCanonicalRecord: a shipped record lands as
// this build's own encoding of what it decoded to, never as the peer's
// bytes, and a record that fails the decoder's bounds is refused before
// the check (the verifier, when serving) ever runs.
func TestIngestHandoffStoresCanonicalRecord(t *testing.T) {
	st, _ := testStore(t)
	svc := New(Config{Store: st})
	p := paperex.Nine()
	want := computed(t, p)
	key := StoreKey(p, sched.Options{}, StageMinPower)

	// An overlong varint for the leading task count: the same value,
	// different bytes.
	canonical := EncodeResult(want)
	padded := append([]byte{canonical[0] | 0x80, 0}, canonical[1:]...)
	if err := svc.IngestHandoff(p, key, padded, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Get(key); string(got) != string(canonical) {
		t.Errorf("stored %x, want the canonical %x", got, canonical)
	}

	checked := false
	check := func(*sched.Result) error { checked = true; return nil }
	shifted := *want
	shifted.Schedule = want.Schedule.Clone()
	for i := range shifted.Schedule.Start {
		shifted.Schedule.Start[i] += model.MaxHorizon
	}
	err := svc.IngestHandoff(p, key, EncodeResult(&shifted), check)
	if !errors.Is(err, ErrHandoffRejected) {
		t.Fatalf("record past the horizon: err %v, want ErrHandoffRejected", err)
	}
	if checked {
		t.Error("record past the horizon reached the check")
	}
}

// FuzzDecodeResult feeds arbitrary bytes to the store-record decoder
// against a degenerate and a heterogeneous problem. It must never
// panic, and every record it accepts must be consistent by
// construction: the profile is the one its tasks and schedule build,
// the tasks are the ones its assignment resolves to, every task runs
// inside the horizon, and re-encoding decodes to the same result.
func FuzzDecodeResult(f *testing.F) {
	probs := []*model.Problem{paperex.Nine(), heteroProblem()}
	for _, p := range probs {
		f.Add(EncodeResult(computed(f, p)))
	}
	f.Add([]byte{})
	f.Add([]byte{0x12, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range probs {
			res, err := decodeResult(p, data)
			if err != nil {
				continue
			}
			base := res.Compiled.Prob.BasePower
			if !reflect.DeepEqual(res.Profile, power.Build(res.Tasks, res.Schedule, base)) {
				t.Fatalf("%s: profile is not the one the schedule builds", p.Name)
			}
			tasks, err := res.Compiled.Prob.EffectiveTasks(res.Assignment)
			if err != nil || !reflect.DeepEqual(res.Tasks, tasks) {
				t.Fatalf("%s: task view is not the assignment's (%v)", p.Name, err)
			}
			for i, s := range res.Schedule.Start {
				if s < 0 || s+res.Tasks[i].Delay > model.MaxHorizon {
					t.Fatalf("%s: task %d runs [%d, +%d) outside the horizon", p.Name, i, s, res.Tasks[i].Delay)
				}
			}
			again, err := decodeResult(p, EncodeResult(res))
			if err != nil {
				t.Fatalf("%s: re-encoded record refused: %v", p.Name, err)
			}
			sameResult(t, res, again, p.Name)
		}
	})
}
