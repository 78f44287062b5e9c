package router

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Problem: "no-such-problem", Runs: 4, Seed: 1})},
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Problem: "nine-hetero", Spec: hetero, Runs: 4, Seed: 1})},
		{http.MethodPost, "/simulate/campaign", campaignDoc(t, web.CampaignRequest{Spec: hetero, Runs: 10, Seed: 1, Lo: 2, Hi: 6})},
		{http.MethodPost, "/simulate/campaign", "not json"},
	}

	single := newBackend(t)
	want := play(t, single.URL, stream)

	cases := []struct {
		name       string
		live, dead int
		cfg        Config
	}{
		{"three live shards", 3, 0, Config{}},
		// Chunks on refused ports walk their rotated live order as far
		// as Retries allows, so every chunk reaches the one live shard.
		{"one live shard, two refused, two retries", 1, 2, Config{Retries: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var urls []string
			for i := 0; i < tc.live; i++ {
				urls = append(urls, newBackend(t).URL)
			}
			for i := 0; i < tc.dead; i++ {
				ts := httptest.NewServer(http.NotFoundHandler())
				ts.Close()
				urls = append(urls, ts.URL)
			}
			rt, err := New(urls, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rts := httptest.NewServer(rt.Handler())
			t.Cleanup(rts.Close)
			got := play(t, rts.URL, stream)

			for i := range stream {
				if want[i] != got[i] {
					t.Errorf("request %d (%s %s): sharded response differs from single process:\n--- single\n%s\n--- sharded\n%s",
						i, stream[i].method, stream[i].path, want[i], got[i])
				}
			}
		})
	}
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
