package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/spec"
	"repro/internal/web"
)

// rawBatch is the wire shape of POST /schedule/batch with the items
// left opaque, so the router can regroup them across shards without
// re-encoding anything a backend will parse.
type rawBatch struct {
	Items []json.RawMessage `json:"items"`
}

// batch splits POST /schedule/batch across shards: each item routes by
// its content address, one sub-batch flies to each owning backend
// concurrently, and the per-item responses are stitched back in
// request order. Because every backend computes deterministically, the
// stitched document is byte-identical to what a single process would
// have produced for the whole batch.
//
// Anything the router cannot confidently split — oversized or
// malformed documents, empty or over-long item lists, items that do
// not decode — is forwarded whole to the empty-key owner instead:
// determinism makes that merely a load-balancing miss, and
// document-level errors come back as the canonical backend bytes.
func (rt *Router) batch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	items, keys, ok := splitBatch(body)
	if !ok {
		rt.forward(w, r, "", body)
		return
	}

	// Each item walks its key's live rank order: rank is computed over
	// the full configured set and DOWN backends are skipped, not
	// re-ranked, so the grouping agrees with every other router sharing
	// this health view. Items sharing a candidate fly as one sub-batch.
	cands := make([][]int, len(keys))
	for i, k := range keys {
		cands[i] = rt.liveOrder(rt.rank(k))
	}
	results := make([]json.RawMessage, len(items))
	errs := rt.fanOut(r.Context(), cands, func(b int, idxs []int) error {
		got, err := rt.sendSubBatch(r.Context(), b, items, idxs)
		if err != nil {
			return err
		}
		for j, i := range idxs {
			results[i] = got[j]
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			results[i] = errorItem(err)
		}
	}

	data, err := json.Marshal(rawBatch{Items: results})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// splitBatch decodes a batch document into routable items. ok=false
// means the router should not split — the document is out of bounds or
// would not survive a round-trip through the router's decoder — and
// must instead be forwarded whole.
func splitBatch(body []byte) (items []json.RawMessage, keys []string, ok bool) {
	if len(body) > maxBatchBytes {
		return nil, nil, false
	}
	var doc rawBatch
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, nil, false
	}
	if len(doc.Items) == 0 || len(doc.Items) > maxBatchItems {
		return nil, nil, false
	}
	keys = make([]string, len(doc.Items))
	for i, raw := range doc.Items {
		var it web.BatchItem
		if err := json.Unmarshal(raw, &it); err != nil {
			return nil, nil, false
		}
		keys[i] = itemKey(it)
	}
	return doc.Items, keys, true
}

// itemKey is an item's routing key: registered problems route by name
// (co-locating them with their upload), inline specs by fingerprint —
// the very content address the backend caches under, so repeats of the
// same problem always land on the shard holding its cached result.
// Items the backend will reject route by the empty key; the rejection
// bytes are deterministic wherever they are computed.
func itemKey(it web.BatchItem) string {
	if it.Problem != "" {
		return "name/" + it.Problem
	}
	if it.Spec != "" && len(it.Spec) <= maxSpecBytes {
		if p, err := spec.ParseString(it.Spec); err == nil {
			return "fp/" + p.Fingerprint()
		}
	}
	return ""
}

// sendSubBatch posts the given items to one backend's batch endpoint
// and returns the per-item response documents, in the order sent.
func (rt *Router) sendSubBatch(ctx context.Context, b int, items []json.RawMessage, idxs []int) ([]json.RawMessage, error) {
	sub := rawBatch{Items: make([]json.RawMessage, len(idxs))}
	for j, i := range idxs {
		sub.Items[j] = items[i]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	resp, err := rt.send(ctx, b, b, http.MethodPost, "/schedule/batch", "", "application/json", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	be := rt.backends[b]
	// A non-200 envelope (e.g. overload shedding) is a backend answer:
	// the sub-batch retries elsewhere, but the breaker is not fed.
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("backend %s: status %d", be.name, resp.StatusCode)
	}
	var out rawBatch
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("backend %s: %v", be.name, err)
	}
	if len(out.Items) != len(idxs) {
		return nil, fmt.Errorf("backend %s: %d items back for %d sent", be.name, len(out.Items), len(idxs))
	}
	return out.Items, nil
}

// errorItem synthesizes a per-item result for an item whose shard
// (and every retry replica) could not be reached at all.
func errorItem(err error) json.RawMessage {
	data, mErr := json.Marshal(web.BatchItemResult{
		Status: http.StatusBadGateway,
		Error:  "all replicas failed: " + err.Error(),
	})
	if mErr != nil {
		return json.RawMessage(`{"status":502,"error":"all replicas failed"}`)
	}
	return data
}
