package service

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/paperex"
	"repro/internal/sched"
	"repro/internal/spec"
)

// twoTask builds a minimal feasible problem whose content varies with
// the tag, so each tag is a distinct cache key.
func twoTask(tag int) *model.Problem {
	p := &model.Problem{Name: fmt.Sprintf("p%d", tag), Pmax: 10, Pmin: 4}
	p.AddTask(model.Task{Name: "a", Resource: "R", Delay: 2 + tag%3, Power: 4})
	p.AddTask(model.Task{Name: "b", Resource: "S", Delay: 2, Power: 4})
	p.MinSep("a", "b", 1)
	return p
}

func infeasible() *model.Problem {
	p := &model.Problem{Name: "cycle", Pmax: 10}
	p.AddTask(model.Task{Name: "a", Resource: "R", Delay: 2, Power: 1})
	p.AddTask(model.Task{Name: "b", Resource: "S", Delay: 2, Power: 1})
	p.MinSep("a", "b", 9)
	p.MinSep("b", "a", 9)
	return p
}

func TestScheduleCacheMissThenHit(t *testing.T) {
	svc := New(Config{})
	p := paperex.Nine()
	r1, err := svc.Schedule(p, sched.Options{}, StageMinPower)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Schedule(p, sched.Options{}, StageMinPower)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second call did not return the cached result")
	}
	st := svc.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
	if st.ComputeNS["minpower"] <= 0 {
		t.Errorf("compute_ns[minpower] = %d, want > 0", st.ComputeNS["minpower"])
	}
}

func TestScheduleStagesAreDistinctKeys(t *testing.T) {
	svc := New(Config{})
	p := paperex.Nine()
	for _, st := range []Stage{StageTiming, StageMaxPower, StageMinPower} {
		if _, err := svc.Schedule(p, sched.Options{}, st); err != nil {
			t.Fatalf("%s: %v", st, err)
		}
	}
	if st := svc.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 3 misses across stages", st)
	}
}

func TestKeySensitivity(t *testing.T) {
	p := twoTask(0)
	base := Key(p, sched.Options{}, StageMinPower)
	if Key(p, sched.Options{}, StageMinPower) != base {
		t.Error("key is not deterministic")
	}
	if Key(p, sched.Options{}, StageTiming) == base {
		t.Error("stage not part of the key")
	}
	if Key(p, sched.Options{Seed: 1}, StageMinPower) == base {
		t.Error("options not part of the key")
	}
	q := p.Clone()
	q.Pmax++
	if Key(q, sched.Options{}, StageMinPower) == base {
		t.Error("problem content not part of the key")
	}
}

// TestScheduleSingleflight hammers one service from GOMAXPROCS*4
// goroutines with overlapping keys and asserts that (a) every unique
// key computed exactly once and (b) all callers of a key observed
// byte-identical schedules. Run under -race this is also the data-race
// certification for the cache.
func TestScheduleSingleflight(t *testing.T) {
	const uniqueKeys = 3
	goroutines := runtime.GOMAXPROCS(0) * 4
	if goroutines < 8 {
		goroutines = 8
	}
	const perG = 6 // requests per goroutine, cycling over the keys

	svc := New(Config{})
	probs := make([]*model.Problem, uniqueKeys)
	for i := range probs {
		probs[i] = twoTask(i)
	}

	got := make([][][]byte, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		got[g] = make([][]byte, perG)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				p := probs[(g+i)%uniqueKeys]
				r, err := svc.Schedule(p, sched.Options{}, StageMinPower)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				data, err := spec.FormatScheduleJSON(r.Compiled.Prob, r.Schedule)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got[g][i] = data
			}
		}()
	}
	close(start)
	wg.Wait()

	st := svc.Stats()
	if st.Misses != uniqueKeys {
		t.Errorf("misses = %d, want exactly %d (one compute per unique key)", st.Misses, uniqueKeys)
	}
	total := int64(goroutines * perG)
	if st.Hits+st.Joins+st.Misses != total {
		t.Errorf("hits(%d)+joins(%d)+misses(%d) != %d requests", st.Hits, st.Joins, st.Misses, total)
	}
	// Byte-identical results per key, across all goroutines.
	want := make([][]byte, uniqueKeys)
	for g := range got {
		for i, data := range got[g] {
			k := (g + i) % uniqueKeys
			if want[k] == nil {
				want[k] = data
			} else if !bytes.Equal(want[k], data) {
				t.Fatalf("key %d: divergent schedules:\n%s\nvs\n%s", k, want[k], data)
			}
		}
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	svc := New(Config{})
	p := infeasible()
	for i := 0; i < 2; i++ {
		if _, err := svc.Schedule(p, sched.Options{}, StageMinPower); err == nil {
			t.Fatal("infeasible problem scheduled")
		}
	}
	st := svc.Stats()
	if st.Misses != 2 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 2 misses and 0 entries (errors uncached)", st)
	}
}

func TestLRUEviction(t *testing.T) {
	svc := New(Config{CacheSize: 2})
	for i := 0; i < 3; i++ {
		if _, err := svc.Schedule(twoTask(i), sched.Options{}, StageTiming); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	// Key 0 is the LRU victim: requesting it again recomputes.
	if _, err := svc.Schedule(twoTask(0), sched.Options{}, StageTiming); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Errorf("stats = %+v, want evicted key to recompute", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	svc := New(Config{CacheSize: -1})
	p := twoTask(0)
	for i := 0; i < 2; i++ {
		if _, err := svc.Schedule(p, sched.Options{}, StageTiming); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Misses != 2 || st.Entries != 0 {
		t.Errorf("stats = %+v, want caching disabled", st)
	}
}

func TestScheduleBatchOrderAndDedup(t *testing.T) {
	svc := New(Config{Workers: 4})
	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = Request{Problem: twoTask(i % 3), Stage: StageMinPower}
	}
	resps := svc.ScheduleBatch(reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if want := 2 + i%3; r.Result.Compiled.Prob.Tasks[0].Delay != want {
			t.Errorf("request %d: response out of order", i)
		}
	}
	if st := svc.Stats(); st.Misses != 3 {
		t.Errorf("misses = %d, want 3 (batch dedup through cache)", st.Misses)
	}
}

// TestScheduleBatchComputesEachEntryOnce: a batch of fifty distinct
// entries on a three-worker service computes every entry exactly once
// and answers each in its own slot.
func TestScheduleBatchComputesEachEntryOnce(t *testing.T) {
	svc := New(Config{Workers: 3})
	const n = 50
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Problem: twoTask(i), Stage: StageTiming}
	}
	var mu sync.Mutex
	computed := map[string]int{}
	t.Cleanup(TestingSetComputeHook(func(_ context.Context, key string) {
		mu.Lock()
		computed[key]++
		mu.Unlock()
	}))
	for i, r := range svc.ScheduleBatch(reqs) {
		if r.Err != nil {
			t.Fatalf("entry %d: %v", i, r.Err)
		}
		if got, want := r.Result.Compiled.Prob.Name, reqs[i].Problem.Name; got != want {
			t.Errorf("entry %d answered with %q, want %q", i, got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(computed) != n {
		t.Errorf("computed %d distinct keys, want %d", len(computed), n)
	}
	for key, c := range computed {
		if c != 1 {
			t.Errorf("key %s computed %d times", key, c)
		}
	}
}

func TestParseStage(t *testing.T) {
	for in, want := range map[string]Stage{
		"": StageMinPower, "minpower": StageMinPower,
		"maxpower": StageMaxPower, "timing": StageTiming,
	} {
		got, err := ParseStage(in)
		if err != nil || got != want {
			t.Errorf("ParseStage(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseStage("bogus"); err == nil {
		t.Error("ParseStage accepted garbage")
	}
}

// publishSeq keeps expvar names unique across repeated runs (-count):
// expvar registration is process-global and permanent.
var publishSeq atomic.Int64

// TestVarsAndPublish: the document Publish exports at /debug/vars is
// the /stats document, field for field, plus last_panic.
func TestVarsAndPublish(t *testing.T) {
	svc := New(Config{})
	if _, err := svc.Schedule(paperex.Nine(), sched.Options{}, StageMinPower); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("svc_test_metrics_%d", publishSeq.Add(1))
	if !svc.Publish(name) {
		t.Fatal("first publish failed")
	}
	if svc.Publish(name) {
		t.Error("duplicate publish did not report the collision")
	}

	var vars map[string]any
	if err := json.Unmarshal([]byte(expvar.Get(name).String()), &vars); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(svc.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	for field := range stats {
		if _, ok := vars[field]; !ok {
			t.Errorf("/debug/vars lacks the /stats field %q", field)
		}
	}
	if lp, ok := vars["last_panic"]; !ok || lp != "" {
		t.Errorf("last_panic = %v (present %t), want an empty string", lp, ok)
	}
	if len(vars) != len(stats)+1 {
		t.Errorf("/debug/vars has %d fields, want the %d of /stats plus last_panic", len(vars), len(stats))
	}
	if cns, _ := vars["compute_ns"].(map[string]any); vars["misses"] != 1.0 || cns["minpower"] == nil {
		t.Errorf("/debug/vars = %v, want 1 miss and minpower compute time", vars)
	}
}

// TestOptionsDigestCoversAllFields mutates each exported sched.Options
// field by reflection and asserts the digest moves: a field optsDigest
// does not cover would alias distinct option sets onto one cache key
// and silently serve wrong results. Unlike a pinned name list, this
// catches a new field even if nobody remembers this test exists.
func TestOptionsDigestCoversAllFields(t *testing.T) {
	base := sched.Options{}
	baseDigest := optsDigest(base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		// Workers is exempt: it never changes a result, so its widths
		// must share one key (TestWorkersShareOneKey).
		if !f.IsExported() || f.Name == "Workers" {
			continue
		}
		mut := base
		fv := reflect.ValueOf(&mut).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(7)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(7)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(7)
		case reflect.String:
			fv.SetString("x")
		case reflect.Slice:
			// One element with a non-zero scalar, so length-only
			// encodings still change the digest.
			el := reflect.New(f.Type.Elem()).Elem()
			switch f.Type.Elem().Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				el.SetInt(1)
			case reflect.Bool:
				el.SetBool(true)
			}
			fv.Set(reflect.Append(reflect.MakeSlice(f.Type, 0, 1), el))
		default:
			t.Fatalf("field %s has kind %s: teach this test to mutate it", f.Name, f.Type.Kind())
		}
		if optsDigest(mut) == baseDigest {
			t.Errorf("optsDigest ignores sched.Options.%s: distinct option sets would share a cache key", f.Name)
		}
	}
}

// TestWorkersShareOneKey: requests that differ only in Workers share
// one cache key, so a restart portfolio is computed once whatever width
// each caller asks for, and the Workers == 0 digest is the one earlier
// releases wrote (warm stores and handoff peers keep their keys).
func TestWorkersShareOneKey(t *testing.T) {
	if got := fmt.Sprintf("%x", optsDigest(sched.Options{Restarts: 8, Seed: 3})); got != "dd2436ed565ab614" {
		t.Errorf("Workers == 0 digest moved: %s", got)
	}
	svc := New(Config{})
	var first *sched.Result
	for _, w := range []int{0, 1, 2, 8} {
		opts := sched.Options{Restarts: 8, Workers: w}
		if k := Key(paperex.Nine(), opts, StageMinPower); k != "d99954e84c16b904b867a881531fe557/minpower/74633354372d8374" {
			t.Errorf("workers=%d: key %s", w, k)
		}
		r, err := svc.Schedule(paperex.Nine(), opts, StageMinPower)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
		} else if r != first {
			t.Errorf("workers=%d recomputed instead of hitting the cache", w)
		}
	}
	if st := svc.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Errorf("misses=%d hits=%d, want 1 and 3", st.Misses, st.Hits)
	}
}

// TestKeySeparatesHeteroDimensions pins the cache-key contract for the
// machine/DVS fields: a problem and its heterogeneous variants must
// never share a key, or the cache would serve a schedule computed for
// different hardware.
func TestKeySeparatesHeteroDimensions(t *testing.T) {
	base := twoTask(1)
	variants := map[string]func(*model.Problem){
		"machine added": func(p *model.Problem) {
			p.Machines = []model.Machine{{Name: "m", Speed: 1, PowerScale: 1}}
		},
		"level added": func(p *model.Problem) {
			p.Tasks[0].Levels = []model.DVSLevel{
				{Mult: 1, Power: p.Tasks[0].Power},
				{Mult: 2, Power: p.Tasks[0].Power / 2},
			}
		},
		"machine and pin": func(p *model.Problem) {
			p.Machines = []model.Machine{{Name: "m", Speed: 2, PowerScale: 1}}
			p.Tasks[0].Machine = "m"
		},
	}
	want := Key(base, sched.Options{}, StageMinPower)
	seen := map[string]string{}
	for name, mutate := range variants {
		q := base.Clone()
		mutate(q)
		got := Key(q, sched.Options{}, StageMinPower)
		if got == want {
			t.Errorf("%s: hetero variant shares the degenerate problem's cache key", name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s and %s share a cache key", name, prev)
		}
		seen[got] = name
	}
}
