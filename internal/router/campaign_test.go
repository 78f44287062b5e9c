package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/web"
)

func campaignDoc(t *testing.T, req web.CampaignRequest) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCampaignDifferentialSingleVsSharded extends the serving tier's
// differential guarantee to POST /simulate/campaign: a router over
// three shards, live or refused — fanning inline-spec campaigns out
// as contiguous seed sub-ranges and merging the partial reducers —
// answers the whole campaign surface byte-identically to one
// single-process server. That includes name-addressed campaigns
// (forwarded whole to the owner), partial sub-range requests
// (coordinator passthrough), and the error contract.
func TestCampaignDifferentialSingleVsSharded(t *testing.T) {
	hetero := heteroSpec()
	stream := []wireReq{
		{http.MethodPost, "/problems", hetero},
		// Inline spec, full range: the router shards this one.
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Spec: hetero, Runs: 30, Seed: 9})},
		// Name-addressed: forwarded whole to the registered owner.
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Problem: "nine-hetero", Runs: 30, Seed: 9})},
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Problem: "nine-task-example", Runs: 16, Seed: 4, Faults: "none"})},
		// Partial sub-range: the caller is a coordinator; passthrough.
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Spec: hetero, Runs: 10, Seed: 3, Lo: 0, Hi: 5, Partial: true})},
		// Error contract: canonical backend bytes through the router.
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Spec: hetero, Runs: 0, Seed: 1})},
		// Shardable documents every backend refuses alike: the router
		// relays the first refused chunk's 4xx instead of failing chunks over.
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Spec: hetero, Runs: 1<<20 + 1, Seed: 1})},
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Spec: hetero, Runs: 10, Seed: 1, Faults: "bogus=1"})},
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Problem: "no-such-problem", Runs: 4, Seed: 1})},
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Problem: "nine-hetero", Spec: hetero, Runs: 4, Seed: 1})},
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Spec: hetero, Runs: 10, Seed: 1, Lo: 2, Hi: 6})},
		{http.MethodPost, "/simulate/campaign", "not json"},
	}

	single := newBackend(t)
	want := play(t, single.URL, stream)
	// The heterogeneous campaigns fly their plans' resolved problems,
	// so these rows compare missions that survive, not total losses.
	for _, i := range []int{1, 2} {
		var sum struct {
			Survived int `json:"survived"`
		}
		_, body, _ := strings.Cut(want[i], "\n")
		if err := json.Unmarshal([]byte(body), &sum); err != nil || sum.Survived == 0 {
			t.Fatalf("heterogeneous campaign %d: no run survived (%v): %s", i, err, want[i])
		}
	}

	// boot starts the router over live poisoner-wrapped backends and
	// dead refused ports. With poison set it arms the second backend in
	// the sharded campaign's rank order: that one never owns a
	// forwarded request, but its partials are poisoned.
	boot := func(t *testing.T, live, dead int, cfg Config, poison bool) (*httptest.Server, *poisoner) {
		var urls []string
		shards := make([]*poisoner, live)
		for i := range shards {
			shards[i] = &poisoner{next: backendHandler()}
			ts := httptest.NewServer(shards[i])
			t.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
		}
		for i := 0; i < dead; i++ {
			ts := httptest.NewServer(http.NotFoundHandler())
			ts.Close()
			urls = append(urls, ts.URL)
		}
		rt, err := New(urls, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rts := httptest.NewServer(rt.Handler())
		t.Cleanup(rts.Close)
		if !poison {
			return rts, nil
		}
		_, key, _ := splitCampaign([]byte(stream[1].body))
		p := shards[rt.liveOrder(rt.rank(key))[1]]
		p.armed.Store(true)
		return rts, p
	}

	cases := []struct {
		name       string
		live, dead int
		cfg        Config
		poison     bool
	}{
		{"three live shards", 3, 0, Config{}, false},
		// Chunks on refused ports walk their rotated live order as far
		// as Retries allows, so every chunk reaches the one live shard.
		{"one live shard, two refused, two retries", 1, 2, Config{Retries: 2}, false},
		// The chunk that first lands on the poisoned shard fails
		// Validate and is retried (once, the default) on the next
		// shard; the poisoned partial is never merged.
		{"three live shards, one poisoned", 3, 0, Config{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rts, p := boot(t, tc.live, tc.dead, tc.cfg, tc.poison)
			got := play(t, rts.URL, stream)

			for i := range stream {
				if want[i] != got[i] {
					t.Errorf("request %d (%s %s): sharded response differs from single process:\n--- single\n%s\n--- sharded\n%s",
						i, stream[i].method, stream[i].path, want[i], got[i])
				}
			}
			if p != nil && p.poisoned.Load() == 0 {
				t.Error("the poisoned shard served no partial; the case tests nothing")
			}
			// Over healthy shards nothing fails over: not even the
			// chunks every backend refuses.
			if tc.dead == 0 && !tc.poison {
				var st StatsResponse
				_, body, _ := strings.Cut(play(t, rts.URL, []wireReq{{http.MethodGet, "/stats", ""}})[0], "\n")
				if err := json.Unmarshal([]byte(body), &st); err != nil || st.Router.Retries != 0 {
					t.Errorf("router retries = %d (%v), want 0", st.Router.Retries, err)
				}
			}
		})
	}

	// With no retry left, the poisoned chunk fails the whole campaign
	// rather than being merged into a summary.
	t.Run("poisoned partial, no retries", func(t *testing.T) {
		rts, p := boot(t, 3, 0, Config{Retries: -1}, true)
		got := play(t, rts.URL, stream[:2])
		if !strings.HasPrefix(got[1], "502\n") || p.poisoned.Load() == 0 {
			t.Fatalf("campaign over a poisoned shard answered %q (poisoned partials %d), want a 502", got[1], p.poisoned.Load())
		}
	})
}

// poisoner wraps a backend handler. Once armed, it corrupts every
// partial campaign reducer the backend answers with — one survivor
// more than runs, which Validate rejects — and counts them.
type poisoner struct {
	next     http.Handler
	armed    atomic.Bool
	poisoned atomic.Int64
}

func (p *poisoner) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !p.armed.Load() || r.URL.Path != "/simulate/campaign" {
		p.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	var part web.CampaignPartial
	if rec.Code == http.StatusOK && json.Unmarshal(body, &part) == nil && part.Hi > 0 {
		part.Reducer.Survived = part.Reducer.Runs + 1
		var err error
		if body, err = json.Marshal(part); err != nil {
			panic(err)
		}
		p.poisoned.Add(1)
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestSplitCampaign pins the router's shard-or-forward decisions.
func TestSplitCampaign(t *testing.T) {
	spec := heteroSpec()
	mustDoc := func(req web.CampaignRequest) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name      string
		body      []byte
		wantKey   string
		shardable bool
	}{
		{"name-routed", mustDoc(web.CampaignRequest{Problem: "p", Runs: 10}), "name/p", false},
		{"inline full range", mustDoc(web.CampaignRequest{Spec: spec, Runs: 10, Seed: 1}), "", true},
		{"inline explicit hi", mustDoc(web.CampaignRequest{Spec: spec, Runs: 10, Hi: 10}), "", true},
		{"partial", mustDoc(web.CampaignRequest{Spec: spec, Runs: 10, Partial: true}), "", false},
		{"sub-range", mustDoc(web.CampaignRequest{Spec: spec, Runs: 10, Lo: 2, Hi: 6}), "", false},
		{"single run", mustDoc(web.CampaignRequest{Spec: spec, Runs: 1}), "", false},
		{"both set", mustDoc(web.CampaignRequest{Problem: "p", Spec: spec, Runs: 10}), "", false},
		{"neither set", mustDoc(web.CampaignRequest{Runs: 10}), "", false},
		{"bad spec", mustDoc(web.CampaignRequest{Spec: "task bogus", Runs: 10}), "", false},
		{"malformed", []byte("not json"), "", false},
	}
	for _, tc := range cases {
		_, key, shardable := splitCampaign(tc.body)
		if shardable != tc.shardable {
			t.Errorf("%s: shardable = %v, want %v", tc.name, shardable, tc.shardable)
		}
		if tc.wantKey != "" && key != tc.wantKey {
			t.Errorf("%s: key = %q, want %q", tc.name, key, tc.wantKey)
		}
		if tc.shardable && key == "" {
			t.Errorf("%s: shardable request must carry a non-empty key", tc.name)
		}
	}
}
