package router

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/web"
)

// FuzzSplitBatch feeds arbitrary bytes to the router's batch splitter.
// Nothing may panic, and a document the router splits must be one it
// can shard: 1 to maxBatchItems items, one routing key per item, every
// item a web.BatchItem, and the sub-batch encoding of the items splits
// back into the same items and keys.
func FuzzSplitBatch(f *testing.F) {
	hetero := heteroSpec()
	doc, err := json.Marshal(map[string]any{"items": []map[string]any{
		{"problem": "nine-task-example"},
		{"spec": hetero, "stage": "minpower"},
		{"problem": "nine-hetero", "stage": "timing"},
		{"problem": "no-such-problem"},
		{"spec": "task bogus"},
		{},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add([]byte("{not json"))
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{"items":[null, {"seed": 3, "restarts": 2, "workers": 0}]}`))
	f.Add([]byte(`{"items":[{"seed": "x"}]}`))
	f.Add([]byte(`{"items":[{}` + strings.Repeat(`,{}`, maxBatchItems) + `]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		items, keys, ok := splitBatch(body)
		if !ok {
			return
		}
		if len(items) < 1 || len(items) > maxBatchItems || len(keys) != len(items) {
			t.Fatalf("accepted %d items with %d keys", len(items), len(keys))
		}
		for i, raw := range items {
			var it web.BatchItem
			if err := json.Unmarshal(raw, &it); err != nil {
				t.Fatalf("item %d does not decode: %v", i, err)
			}
		}
		sub, err := json.Marshal(rawBatch{Items: items})
		if err != nil {
			t.Fatalf("sub-batch does not encode: %v", err)
		}
		items2, keys2, ok := splitBatch(sub)
		if !ok || len(items2) != len(items) || !slices.Equal(keys2, keys) {
			t.Fatalf("sub-batch splits to %d items, keys %q; want %q", len(items2), keys2, keys)
		}
	})
}

// FuzzSplitCampaign feeds arbitrary bytes to the router's campaign
// splitter. Nothing may panic, and a campaign the router shards must be
// one it may shard: an inline spec that parses, keyed by its content
// address, over the full run range of at least two runs, and not
// already a partial. Re-encoding the decoded request routes the same.
func FuzzSplitCampaign(f *testing.F) {
	hetero := heteroSpec()
	for _, req := range []web.CampaignRequest{
		{Spec: hetero, Runs: 30, Seed: 9},
		{Problem: "nine-hetero", Runs: 30, Seed: 9},
		{Problem: "nine-task-example", Runs: 16, Seed: 4, Faults: "none"},
		{Spec: hetero, Runs: 10, Seed: 3, Lo: 0, Hi: 5, Partial: true},
		{Spec: hetero, Runs: 0, Seed: 1},
		{Spec: hetero, Runs: 1<<20 + 1, Seed: 1},
		{Spec: hetero, Runs: 10, Seed: 1, Faults: "bogus=1"},
		{Problem: "nine-hetero", Spec: hetero, Runs: 4, Seed: 1},
		{Spec: hetero, Runs: 10, Seed: 1, Lo: 2, Hi: 6},
		{Spec: hetero, Runs: 10, Hi: 10},
		{Spec: hetero, Runs: 10, Partial: true},
		{Spec: hetero, Runs: 1},
	} {
		doc, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, key, shardable := splitCampaign(body)
		if !shardable {
			return
		}
		p, err := spec.ParseString(req.Spec)
		if err != nil {
			t.Fatalf("shardable campaign's spec does not parse: %v", err)
		}
		if want := "fp/" + p.Fingerprint(); key != want {
			t.Fatalf("key = %q, want %q", key, want)
		}
		if req.Lo != 0 || (req.Hi != 0 && req.Hi != req.Runs) || req.Runs < 2 || req.Partial {
			t.Fatalf("sharded a campaign that is not full-range: lo %d hi %d runs %d partial %v", req.Lo, req.Hi, req.Runs, req.Partial)
		}
		doc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("request does not encode: %v", err)
		}
		req2, key2, shardable2 := splitCampaign(doc)
		if !shardable2 || key2 != key || req2 != req {
			t.Fatalf("re-encoded request routes differently: %+v %q %v", req2, key2, shardable2)
		}
	})
}
