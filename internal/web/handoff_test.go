package web

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/paperex"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/verify"
)

// mapStore is an in-memory BlobStore for handoff tests.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), val...)
	return nil
}

func (s *mapStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *mapStore) Size() int64 { return 0 }

// storedServer boots a web server whose service writes through st.
func storedServer(t *testing.T, st service.BlobStore) (*Server, *httptest.Server) {
	t.Helper()
	cfg := service.Config{}
	if st != nil {
		cfg.Store = st
	}
	srv := NewServerWith(sched.Options{}, service.New(cfg))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// handoffDoc builds a valid handoff record by computing the result the
// way a non-owner shard would.
func handoffDoc(t testing.TB) (rec handoffRecord, key string) {
	t.Helper()
	p := paperex.Nine()
	svc := service.New(service.Config{})
	res, err := svc.ScheduleCtx(context.Background(), p, sched.Options{}, service.StageMinPower)
	if err != nil {
		t.Fatal(err)
	}
	key = service.StoreKey(p, sched.Options{}, service.StageMinPower)
	return handoffRecord{Key: key, Spec: spec.Format(p), Value: service.EncodeResult(res)}, key
}

func postPut(t *testing.T, base string, rec handoffRecord) *http.Response {
	t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/store/put", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestStorePutIngestsVerifiedRecord is the receiving half of hinted
// handoff: a shipped record lands in the store only after the key,
// decode, and schedule verification all pass, and the next request for
// that key is served from L2 without recomputing.
func TestStorePutIngestsVerifiedRecord(t *testing.T) {
	st := newMapStore()
	srv, ts := storedServer(t, st)

	rec, key := handoffDoc(t)
	resp := postPut(t, ts.URL, rec)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid handoff: status %d, want 204", resp.StatusCode)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("accepted record is not in the store")
	}
	stats := srv.Service().Stats()
	if stats.HandoffsReceived != 1 || stats.HandoffsRejected != 0 {
		t.Errorf("received=%d rejected=%d, want 1/0", stats.HandoffsReceived, stats.HandoffsRejected)
	}

	// The record must be live: the owner serves the key from L2.
	srv.Add(paperex.Nine())
	r, err := http.Get(ts.URL + "/schedule?problem=nine-task-example&format=json")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("schedule after handoff: status %d", r.StatusCode)
	}
	if got := srv.Service().Stats().HitsL2; got != 1 {
		t.Errorf("hits_l2=%d after handoff refill, want 1", got)
	}
}

// TestStorePutRejections walks the validation gauntlet: every invalid
// record must bounce with the right status and never touch the store.
func TestStorePutRejections(t *testing.T) {
	valid, _ := handoffDoc(t)

	t.Run("key for a different problem", func(t *testing.T) {
		st := newMapStore()
		srv, ts := storedServer(t, st)
		rec := valid
		rec.Key = "sr2/0000000000000000/minpower/x"
		if resp := postPut(t, ts.URL, rec); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status %d, want 422", resp.StatusCode)
		}
		if st.Len() != 0 {
			t.Error("rejected record reached the store")
		}
		if got := srv.Service().Stats().HandoffsRejected; got != 1 {
			t.Errorf("handoffs_rejected=%d, want 1", got)
		}
	})

	t.Run("corrupt value", func(t *testing.T) {
		st := newMapStore()
		_, ts := storedServer(t, st)
		rec := valid
		rec.Value = append([]byte{0xFF, 0xEE}, rec.Value[:len(rec.Value)/2]...)
		if resp := postPut(t, ts.URL, rec); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status %d, want 422", resp.StatusCode)
		}
		if st.Len() != 0 {
			t.Error("corrupt record reached the store")
		}
	})

	t.Run("start past the horizon", func(t *testing.T) {
		st := newMapStore()
		_, ts := storedServer(t, st)
		res, err := service.New(service.Config{}).ScheduleCtx(context.Background(), paperex.Nine(), sched.Options{}, service.StageMinPower)
		if err != nil {
			t.Fatal(err)
		}
		// Shifting every start keeps the schedule time-valid, so only the
		// decoder's horizon bound can refuse it.
		shifted := *res
		shifted.Schedule = res.Schedule.Clone()
		for i := range shifted.Schedule.Start {
			shifted.Schedule.Start[i] += model.MaxHorizon
		}
		rec := valid
		rec.Value = service.EncodeResult(&shifted)
		if resp := postPut(t, ts.URL, rec); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("status %d, want 422", resp.StatusCode)
		}
		if st.Len() != 0 {
			t.Error("record past the horizon reached the store")
		}
	})

	t.Run("no store configured", func(t *testing.T) {
		_, ts := storedServer(t, nil)
		if resp := postPut(t, ts.URL, valid); resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("status %d, want 503", resp.StatusCode)
		}
	})

	t.Run("unparseable spec", func(t *testing.T) {
		_, ts := storedServer(t, newMapStore())
		rec := valid
		rec.Spec = "task bogus"
		if resp := postPut(t, ts.URL, rec); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("missing fields", func(t *testing.T) {
		_, ts := storedServer(t, newMapStore())
		if resp := postPut(t, ts.URL, handoffRecord{}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestStorePutServesDerivedDataFromTheSchedule ships records that pair
// the pipeline's true schedule with a forged power profile and, for a
// heterogeneous problem, a forged task power. A record carries only
// the plan's decisions, so the L2 hit must serve the energy cost, peak
// and task powers the pipeline itself derives from that schedule.
func TestStorePutServesDerivedDataFromTheSchedule(t *testing.T) {
	hetero, err := spec.ParseString(heteroSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range []*model.Problem{paperex.Nine(), hetero} {
		t.Run(p.Name, func(t *testing.T) {
			want, err := service.New(service.Config{}).ScheduleCtx(ctx, p, sched.Options{}, service.StageMinPower)
			if err != nil {
				t.Fatal(err)
			}
			forged := *want
			forged.Profile = power.Profile{Segs: []power.Segment{{T0: 0, T1: want.Finish(), P: 0.5}}}
			forged.Tasks = append([]model.Task(nil), want.Tasks...)
			forged.Tasks[0].Power = 0.001

			srv, ts := storedServer(t, newMapStore())
			rec := handoffRecord{
				Key:   service.StoreKey(p, sched.Options{}, service.StageMinPower),
				Spec:  spec.Format(p),
				Value: service.EncodeResult(&forged),
			}
			if resp := postPut(t, ts.URL, rec); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("handoff: status %d, want 204", resp.StatusCode)
			}
			got, err := srv.Service().ScheduleCtx(ctx, p, sched.Options{}, service.StageMinPower)
			if err != nil {
				t.Fatal(err)
			}
			if hits := srv.Service().Stats().HitsL2; hits != 1 {
				t.Fatalf("hits_l2=%d, want the shipped record served", hits)
			}
			if got.EnergyCost() != want.EnergyCost() || got.Peak() != want.Peak() {
				t.Errorf("served energy cost %g J, peak %g W; the pipeline derives %g J, %g W",
					got.EnergyCost(), got.Peak(), want.EnergyCost(), want.Peak())
			}
			for i := range want.Tasks {
				if got.Tasks[i].Power != want.Tasks[i].Power {
					t.Errorf("task %d served at %g W, runs at %g W", i, got.Tasks[i].Power, want.Tasks[i].Power)
				}
			}
		})
	}
}

// TestSpecBoundsRefuseLongHorizon: a problem whose serial horizon
// exceeds model.MaxHorizon is refused with 400 at every boundary that
// takes a spec, before anything is scheduled or verified — whether a
// nominal delay is long or a machine so slow that its effective delays
// saturate (they once wrapped to 1 s and passed the bound).
func TestSpecBoundsRefuseLongHorizon(t *testing.T) {
	for _, c := range []struct{ name, spec string }{
		{"long-delay", "problem long\ntask a R 100000000 1\n"},
		{"slow-machine", "problem slow\nmachine slow 1e-300 1\ntask a R 50 1\ntask b S 70 1\n"},
	} {
		t.Run(c.name, func(t *testing.T) { refusedEverywhere(t, c.spec) })
	}
}

func refusedEverywhere(t *testing.T, long string) {
	srv, ts := storedServer(t, newMapStore())
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	doc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if code, body := post("/problems", long); code != http.StatusBadRequest {
		t.Errorf("upload: status %d (%s), want 400", code, body)
	}
	code, body := post("/schedule/batch", doc(BatchRequest{Items: []BatchItem{{Spec: long}}}))
	var br BatchResponse
	if err := json.Unmarshal([]byte(body), &br); err != nil || code != http.StatusOK || len(br.Items) != 1 {
		t.Fatalf("batch: status %d body %s", code, body)
	}
	if br.Items[0].Status != http.StatusBadRequest {
		t.Errorf("batch item: status %d, want 400", br.Items[0].Status)
	}
	if code, body := post("/simulate/campaign", doc(map[string]any{"spec": long, "runs": 1})); code != http.StatusBadRequest {
		t.Errorf("campaign: status %d (%s), want 400", code, body)
	}
	if code, body := post("/store/put", doc(handoffRecord{Key: "k", Spec: long, Value: []byte{0}})); code != http.StatusBadRequest {
		t.Errorf("handoff: status %d (%s), want 400", code, body)
	}
	vs := httptest.NewServer(http.HandlerFunc(srv.VerifyHandlerFunc))
	defer vs.Close()
	resp, err := http.Post(vs.URL, "text/plain", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("verify: status %d, want 400", resp.StatusCode)
	}
	if s := srv.Service().Stats(); s.Misses != 0 {
		t.Errorf("a refused spec was scheduled: %+v", s)
	}
}

// FuzzStorePut sends arbitrary documents to the handoff receiver. It
// must never panic, and a record it accepts must rehydrate to a
// schedule that verifies against its problem's resolved view.
func FuzzStorePut(f *testing.F) {
	valid, _ := handoffDoc(f)
	hetero, err := spec.ParseString(heteroSpec)
	if err != nil {
		f.Fatal(err)
	}
	res, err := service.New(service.Config{}).ScheduleCtx(context.Background(), hetero, sched.Options{}, service.StageMinPower)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []handoffRecord{valid, {
		Key:   service.StoreKey(hetero, sched.Options{}, service.StageMinPower),
		Spec:  spec.Format(hetero),
		Value: service.EncodeResult(res),
	}} {
		body, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"key":"k","spec":"task a R 1 1\n","value":"AA=="}`))
	st := newMapStore()
	srv := NewServerWith(sched.Options{}, service.New(service.Config{Store: st}))
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/store/put", bytes.NewReader(body)))
		if w.Code != http.StatusNoContent {
			return
		}
		// Accepted: the document parsed as the receiver parsed it.
		var rec handoffRecord
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			t.Fatalf("accepted a document that does not decode: %v", err)
		}
		p, err := spec.ParseString(rec.Spec)
		if err != nil {
			t.Fatalf("accepted a spec that does not parse: %v", err)
		}
		stored, ok := st.Get(rec.Key)
		if !ok {
			t.Fatal("accepted record is not in the store")
		}
		// Rehydrate the stored bytes through a fresh service, under the
		// key that service reads.
		one := newMapStore()
		one.Put(service.StoreKey(p, sched.Options{}, service.StageMinPower), stored)
		svc := service.New(service.Config{Store: one})
		got, err := svc.ScheduleCtx(context.Background(), p, sched.Options{}, service.StageMinPower)
		if err != nil || svc.Stats().HitsL2 != 1 {
			t.Fatalf("stored record does not rehydrate (err %v, stats %+v)", err, svc.Stats())
		}
		if rep := verify.Check(got.EffectiveProblem(), got.Schedule); !rep.OK() {
			t.Fatalf("stored record fails verification: %v", rep.Err())
		}
	})
}

// TestHandoffShipsOnOwnerHeader is the sending half: a request
// arriving with X-Handoff-Owner triggers an asynchronous shipment of
// the computed record to the owner's /store/put.
func TestHandoffShipsOnOwnerHeader(t *testing.T) {
	answering, ats := storedServer(t, newMapStore())
	answering.Add(paperex.Nine())
	ownerStore := newMapStore()
	owner, ots := storedServer(t, ownerStore)

	req, err := http.NewRequest(http.MethodGet, ats.URL+"/schedule?problem=nine-task-example&format=json", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HandoffOwnerHeader, ots.URL)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if owner.Service().Stats().HandoffsReceived > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := owner.Service().Stats().HandoffsReceived; got != 1 {
		t.Fatalf("owner handoffs_received=%d, want 1", got)
	}
	if ownerStore.Len() != 1 {
		t.Errorf("owner store holds %d records, want 1", ownerStore.Len())
	}
	// The sender counts a shipment only once the owner's response is
	// back, which can be after the owner has counted it as received.
	for time.Now().Before(deadline) {
		if answering.Service().Stats().HandoffsSent > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := answering.Service().Stats().HandoffsSent; got != 1 {
		t.Errorf("answering shard handoffs_sent=%d, want 1", got)
	}

	// A garbage owner address must be ignored, not shipped to.
	req.Header.Set(HandoffOwnerHeader, "not a url")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule with bogus owner header: status %d", resp.StatusCode)
	}
	if got := answering.Service().Stats().HandoffSendErrors; got != 0 {
		t.Errorf("handoff_send_errors=%d for an unroutable owner, want 0 (silently skipped)", got)
	}
}

// TestReadyzFlipsUnderDrain pins the readiness contract /readyz
// serves to the router's prober.
func TestReadyzFlipsUnderDrain(t *testing.T) {
	srv, ts := storedServer(t, nil)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/healthz", http.StatusOK},
		{"/readyz", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
	srv.SetReady(false)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("draining /readyz: status %d body %q, want 503 draining", resp.StatusCode, body)
	}
	// Liveness must not flip with readiness.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz: status %d, want 200", resp.StatusCode)
	}
	srv.SetReady(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("recovered /readyz: status %d, want 200", resp.StatusCode)
	}
}
