package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/paperex"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/web"
)

// newBackend boots one backend exactly as cmd/serve wires it.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(backendHandler())
	t.Cleanup(ts.Close)
	return ts
}

// backendHandler is a backend's handler as cmd/serve wires it: the web
// handler plus the standalone /verify endpoint.
func backendHandler() http.Handler {
	srv := web.NewServer(sched.Options{})
	srv.Add(paperex.Nine())
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("POST /verify", srv.VerifyHandlerFunc)
	return mux
}

func newRouterServer(t *testing.T, backends ...string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// heteroSpec is a spec document exercising the heterogeneous-machines
// and DVS-levels extensions, so the differential test covers the full
// model surface over the wire.
func heteroSpec() string {
	p := paperex.Nine().Clone()
	p.Name = "nine-hetero"
	p.Machines = []model.Machine{
		{Name: "fast", Speed: 2, PowerScale: 1.5},
		{Name: "slow", Speed: 1, PowerScale: 1},
	}
	p.Tasks[0].Levels = []model.DVSLevel{{Mult: 1, Power: p.Tasks[0].Power}, {Mult: 2, Power: p.Tasks[0].Power / 3}}
	return spec.Format(p)
}

type wireReq struct {
	method, path, body string
}

// play replays a request stream against one base URL and returns each
// response as "status\nbody".
func play(t *testing.T, base string, reqs []wireReq) []string {
	t.Helper()
	out := make([]string, len(reqs))
	for i, rq := range reqs {
		var resp *http.Response
		var err error
		if rq.method == http.MethodGet {
			resp, err = http.Get(base + rq.path)
		} else {
			resp, err = http.Post(base+rq.path, "application/json", strings.NewReader(rq.body))
		}
		if err != nil {
			t.Fatalf("request %d %s %s: %v", i, rq.method, rq.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d %s %s: %v", i, rq.method, rq.path, err)
		}
		out[i] = fmt.Sprintf("%d\n%s", resp.StatusCode, body)
	}
	return out
}

// TestDifferentialSingleVsSharded is the serving tier's core
// correctness claim: a router over two shards answers an entire
// request stream — uploads, every pipeline stage, heterogeneous/DVS
// problems, batches mixing names and inline specs, and the whole error
// contract — byte-identically to one single-process server. The
// deterministic pipeline is what makes this hold with zero
// inter-shard coordination.
func TestDifferentialSingleVsSharded(t *testing.T) {
	hetero := heteroSpec()
	batchDoc, err := json.Marshal(map[string]any{"items": []map[string]any{
		{"problem": "nine-task-example"},
		{"spec": hetero, "stage": "minpower"},
		{"problem": "nine-hetero", "stage": "timing"},
		{"problem": "no-such-problem"},
		{"spec": "task bogus"},
		{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	stream := []wireReq{
		{http.MethodPost, "/problems", hetero},
		{http.MethodGet, "/schedule?problem=nine-hetero&format=json", ""},
		{http.MethodGet, "/schedule?problem=nine-hetero&stage=timing&format=json", ""},
		{http.MethodGet, "/schedule?problem=nine-hetero&stage=maxpower&format=ascii", ""},
		{http.MethodGet, "/schedule?problem=nine-task-example&format=json&seed=7&restarts=2", ""},
		{http.MethodGet, "/schedule?problem=no-such-problem", ""},
		{http.MethodGet, "/schedule?problem=nine-task-example&stage=bogus", ""},
		{http.MethodPost, "/verify", hetero},
		{http.MethodGet, "/simulate?problem=nine-task-example&n=20&seed=5&format=json", ""},
		{http.MethodPost, "/schedule/batch", string(batchDoc)},
		{http.MethodPost, "/schedule/batch", "{not json"},
		{http.MethodPost, "/schedule/batch", `{"items":[]}`},
	}

	single := newBackend(t)
	want := play(t, single.URL, stream)

	b1, b2 := newBackend(t), newBackend(t)
	_, rts := newRouterServer(t, b1.URL, b2.URL)
	got := play(t, rts.URL, stream)

	for i := range stream {
		if got[i] != want[i] {
			t.Errorf("request %d (%s %s): sharded response differs from single-process\nsingle:\n%s\nsharded:\n%s",
				i, stream[i].method, stream[i].path, want[i], got[i])
		}
	}
}

// TestRendezvousProperties pins the hash's contract: identical
// placement across independent router instances, reasonable balance,
// and minimal disruption — removing a backend remaps only the keys it
// owned.
func TestRendezvousProperties(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	rt1, err := New(names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := New(names, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rtAB, err := New(names[:2], Config{})
	if err != nil {
		t.Fatal(err)
	}

	counts := make(map[string]int)
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("fp/%d", i)
		o1, o2 := rt1.rank(key), rt2.rank(key)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("key %q: instances disagree: %v vs %v", key, o1, o2)
		}
		owner := rt1.backends[o1[0]].name
		counts[owner]++
		if owner != names[2] {
			if ab := rtAB.backends[rtAB.rank(key)[0]].name; ab != owner {
				moved++
			}
		}
	}
	for _, n := range names {
		if counts[n] < 50 {
			t.Errorf("backend %s owns only %d/300 keys; want a roughly uniform split (%v)", n, counts[n], counts)
		}
	}
	if moved != 0 {
		t.Errorf("removing one backend moved %d keys owned by the survivors; rendezvous must move none", moved)
	}
}

// TestFailoverRetry kills shards on a key's rank order and asserts the
// router transparently fails over its requests — upload, single and
// batch — down that order, and that the upload's registration ends up
// on every live shard. ranks spells the liveness of the key's rank
// order: 'D' a refused port, 'L' a live backend.
func TestFailoverRetry(t *testing.T) {
	cases := []struct {
		name  string
		ranks string
		cfg   Config
	}{
		{"owner dead", "DL", Config{}},
		// The registration replica must skip the dead owner and land on
		// the live shard that did not answer.
		{"owner dead, two live replicas", "DLL", Config{}},
		// Batch items walk as far as Retries allows, like single requests.
		{"two dead ranks, two retries", "DDL", Config{Retries: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var urls, liveURLs []string
			dead := make(map[string]bool)
			for _, c := range tc.ranks {
				if c == 'L' {
					ts := newBackend(t)
					urls = append(urls, ts.URL)
					liveURLs = append(liveURLs, ts.URL)
					continue
				}
				ts := httptest.NewServer(http.NotFoundHandler())
				ts.Close() // the port is now refused: a transport error, not an HTTP answer
				urls = append(urls, ts.URL)
				dead[ts.URL] = true
			}
			rt, err := New(urls, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rts := httptest.NewServer(rt.Handler())
			t.Cleanup(rts.Close)

			// Find a problem name whose rank order has the row's
			// liveness. Scores hash the backend URL (which carries an
			// ephemeral port), so probe names instead of hardcoding one.
			name := ""
			for i := 0; i < 256 && name == ""; i++ {
				n := fmt.Sprintf("probe-%d", i)
				got := ""
				for _, idx := range rt.rank("name/" + n) {
					if dead[rt.backends[idx].name] {
						got += "D"
					} else {
						got += "L"
					}
				}
				if got == tc.ranks {
					name = n
				}
			}
			if name == "" {
				t.Fatalf("no probe name has rank liveness %s in 256 tries", tc.ranks)
			}
			p := paperex.Nine().Clone()
			p.Name = name
			specDoc := spec.Format(p)

			// Upload routes to the dead owner, fails over to a live
			// replica, and registers there; the follow-up GET and batch
			// items fail over identically, so they find the registration.
			resp, err := http.Post(rts.URL+"/problems", "text/plain", strings.NewReader(specDoc))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("upload through dead owner: status %d", resp.StatusCode)
			}
			// The replica copy is sent after the upload's response.
			for _, u := range liveURLs {
				deadline := time.Now().Add(5 * time.Second)
				for {
					resp, err := http.Get(u + "/schedule?problem=" + name + "&format=json")
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("live backend %s does not hold the registration: status %d", u, resp.StatusCode)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}

			resp, err = http.Get(rts.URL + "/schedule?problem=" + name + "&format=json")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("schedule through dead owner: status %d", resp.StatusCode)
			}

			doc, _ := json.Marshal(map[string]any{"items": []map[string]any{{"problem": name}}})
			resp, err = http.Post(rts.URL+"/schedule/batch", "application/json", strings.NewReader(string(doc)))
			if err != nil {
				t.Fatal(err)
			}
			var batch struct {
				Items []web.BatchItemResult `json:"items"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if len(batch.Items) != 1 || batch.Items[0].Status != http.StatusOK {
				t.Fatalf("batch through dead owner: %+v", batch)
			}

			if rt.Retries() < 3 {
				t.Errorf("retries = %d, want >= 3 (upload, schedule, batch)", rt.Retries())
			}
		})
	}
}

// TestAllReplicasDown pins the router's own failure mode: when every
// replica is unreachable, single requests get a 502 and batch items
// get per-item 502 entries.
func TestAllReplicasDown(t *testing.T) {
	d1 := httptest.NewServer(http.NotFoundHandler())
	d1.Close()
	d2 := httptest.NewServer(http.NotFoundHandler())
	d2.Close()
	_, rts := newRouterServer(t, d1.URL, d2.URL)

	resp, err := http.Get(rts.URL + "/schedule?problem=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("single: status %d, want 502", resp.StatusCode)
	}

	doc := `{"items":[{"problem":"x"},{"problem":"y"}]}`
	resp, err = http.Post(rts.URL+"/schedule/batch", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Items []web.BatchItemResult `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("batch envelope: status %d, want 200", resp.StatusCode)
	}
	if len(batch.Items) != 2 {
		t.Fatalf("batch items: %d, want 2", len(batch.Items))
	}
	for i, it := range batch.Items {
		if it.Status != http.StatusBadGateway {
			t.Errorf("item %d: status %d, want 502", i, it.Status)
		}
	}
}

// TestStatsAggregation drives work through the router and checks that
// GET /stats sums the shard counters.
func TestStatsAggregation(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	_, rts := newRouterServer(t, b1.URL, b2.URL)

	for _, path := range []string{
		"/schedule?problem=nine-task-example&format=json",
		"/schedule?problem=nine-task-example&stage=timing&format=json",
	} {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(rts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != 2 {
		t.Fatalf("shards: %d, want 2", len(doc.Shards))
	}
	var misses int64
	for i, sh := range doc.Shards {
		if sh.Stats == nil {
			t.Fatalf("shard %d: no stats (%s)", i, sh.Error)
		}
		misses += sh.Stats.Misses
	}
	if doc.Aggregate.Misses != misses || misses < 2 {
		t.Errorf("aggregate misses %d, shard sum %d, want equal and >= 2", doc.Aggregate.Misses, misses)
	}
	if doc.Aggregate.UptimeSeconds < 0 {
		t.Errorf("aggregate uptime %f, want >= 0", doc.Aggregate.UptimeSeconds)
	}
}

// TestStatsDegradesOnUnreachableShard pins satellite behavior: an
// unreachable shard yields a marked "unreachable" entry and a health
// verdict, while the aggregate still sums whoever answered.
func TestStatsDegradesOnUnreachableShard(t *testing.T) {
	live := newBackend(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	_, rts := newRouterServer(t, live.URL, dead.URL)

	// Put at least one counter into the live shard.
	resp, err := http.Get(rts.URL + "/schedule?problem=nine-task-example&format=json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(rts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats with a dead shard: status %d, want 200", resp.StatusCode)
	}
	var doc StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var deadEntry, liveEntry *ShardStats
	for i := range doc.Shards {
		switch doc.Shards[i].Backend {
		case dead.URL:
			deadEntry = &doc.Shards[i]
		case live.URL:
			liveEntry = &doc.Shards[i]
		}
	}
	if deadEntry == nil || liveEntry == nil {
		t.Fatalf("missing shard entries: %+v", doc.Shards)
	}
	if !strings.HasPrefix(deadEntry.Error, "unreachable: ") || deadEntry.Stats != nil {
		t.Errorf("dead shard entry: error=%q stats=%v, want unreachable marker and no stats", deadEntry.Error, deadEntry.Stats)
	}
	if liveEntry.Stats == nil {
		t.Fatalf("live shard entry carries no stats: %+v", liveEntry)
	}
	if doc.Aggregate.Misses != liveEntry.Stats.Misses || doc.Aggregate.Misses < 1 {
		t.Errorf("aggregate misses=%d, live shard misses=%d; aggregate must cover whoever answered",
			doc.Aggregate.Misses, liveEntry.Stats.Misses)
	}
	if len(doc.Router.Backends) != 2 {
		t.Errorf("router health view has %d backends, want 2", len(doc.Router.Backends))
	}
}

// TestProberEvictsAndRecovers runs the active membership state
// machine against a backend whose readiness flips: DOWN after
// FailThreshold failed probes, requests skipping it without retries,
// and UP again after RiseThreshold successes.
func TestProberEvictsAndRecovers(t *testing.T) {
	var notReady atomic.Bool
	flaky := web.NewServer(sched.Options{})
	flaky.Add(paperex.Nine())
	fts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && notReady.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		flaky.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(fts.Close)
	steady := newBackend(t)

	rt, err := New([]string{fts.URL, steady.URL}, Config{
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 2,
		RiseThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	state := func(url string) string {
		for _, h := range rt.Health() {
			if h.Backend == url {
				return h.State
			}
		}
		return "unknown"
	}
	waitState := func(url, want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if state(url) == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("backend %s never reached state %q (now %q)", url, want, state(url))
	}

	waitState(fts.URL, "up")
	waitState(steady.URL, "up")

	notReady.Store(true)
	waitState(fts.URL, "down")
	// While down, requests owned by the flaky backend are skipped in
	// rank order — served by the steady one with zero retries.
	pre := rt.Retries()
	for i := 0; i < 8; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/schedule?problem=nine-task-example&format=json&seed=%d", rts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d during eviction: status %d", i, resp.StatusCode)
		}
	}
	if got := rt.Retries(); got != pre {
		t.Errorf("retries grew %d -> %d while the down shard should be skipped at rank time", pre, got)
	}

	notReady.Store(false)
	waitState(fts.URL, "up")
	// /readyz reflects the tier: with one backend up it is ready.
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("router /readyz with live backends: status %d", resp.StatusCode)
	}
}

// TestClientCancelKeepsBreakerClosed pins that only the backend's own
// failures feed its breaker: BreakerThreshold clients giving up on a
// slow but healthy backend must not open it.
func TestClientCancelKeepsBreakerClosed(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	t.Cleanup(slow.Close)
	rt, err := New([]string{slow.URL}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Count finished router handlers, so the check below runs after
	// every forward has seen its client leave.
	done := make(chan struct{}, rt.cfg.BreakerThreshold)
	h := rt.Handler()
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		done <- struct{}{}
	}))
	t.Cleanup(rts.Close)

	impatient := &http.Client{Timeout: 50 * time.Millisecond}
	for i := 0; i < rt.cfg.BreakerThreshold; i++ {
		if resp, err := impatient.Get(rts.URL + "/schedule?problem=nine-task-example"); err == nil {
			resp.Body.Close()
			t.Fatalf("request %d: status %d from a backend that never answers", i, resp.StatusCode)
		}
		<-done
	}
	if h := rt.Health()[0]; h.BreakerOpen {
		t.Errorf("breaker opened on a healthy backend after %d client cancellations: %+v", rt.cfg.BreakerThreshold, h)
	}
}
