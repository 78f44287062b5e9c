package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/web"
)

// campaign shards POST /simulate/campaign: an inline-spec campaign
// over the full run range is split into contiguous seed sub-ranges,
// one per live backend in the spec's rendezvous rank order, executed
// concurrently with Partial=true, and the returned reducers are merged
// in range order and finalized locally. Reducer folding is
// integer-exact, so the merged summary is byte-identical to one
// backend running the whole campaign — sharding is purely a
// wall-clock win, never a statistics change.
//
// Everything else is forwarded whole to a single shard: name-addressed
// campaigns (only the owner and its replica registered the problem, so
// a fan-out would 404), explicit sub-range or Partial requests (the
// caller is already a coordinator), campaigns too small to split, and
// documents the router cannot confidently decode (the owner of their
// key produces the canonical error bytes).
func (rt *Router) campaign(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	req, key, shardable := splitCampaign(body)
	live := rt.liveOrder(rt.rank(key))
	if !shardable || len(live) < 2 {
		rt.forward(w, r, key, body)
		return
	}

	// Contiguous sub-ranges in rank order: chunk i runs [lo_i, hi_i).
	// Ascending order here is what lets the merge below just fold
	// left-to-right.
	chunks := len(live)
	if chunks > req.Runs {
		chunks = req.Runs
	}
	type chunk struct {
		lo, hi int
	}
	parts := make([]chunk, chunks)
	base, rem := req.Runs/chunks, req.Runs%chunks
	lo := 0
	for i := range parts {
		hi := lo + base
		if i < rem {
			hi++
		}
		parts[i] = chunk{lo: lo, hi: hi}
		lo = hi
	}

	// Chunk i walks the live order rotated by i: it starts on its own
	// backend and fails over to the next ones. Ranges are disjoint, so
	// a retried chunk can never double-count a run.
	cands := make([][]int, chunks)
	for i := range cands {
		cands[i] = append(append([]int(nil), live[i:]...), live[:i]...)
	}
	reds := make([]*sim.Reducer, chunks)
	errs := rt.fanOut(r.Context(), cands, func(b int, idxs []int) error {
		for _, i := range idxs {
			red, err := rt.sendCampaignChunk(r.Context(), b, req, parts[i].lo, parts[i].hi)
			if err != nil {
				return err
			}
			reds[i] = red
		}
		return nil
	})

	for _, err := range errs {
		var rf *refusal
		if errors.As(err, &rf) {
			w.Header().Set("Content-Type", rf.contentType)
			w.WriteHeader(rf.status)
			w.Write(rf.body)
			return
		}
	}
	for _, err := range errs {
		if err != nil {
			writeError(w, http.StatusBadGateway, "campaign shard failed: "+err.Error())
			return
		}
	}
	merged := reds[0]
	for i := 1; i < chunks; i++ {
		merged.Merge(reds[i])
	}
	data, err := merged.Finalize(req.Seed).JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// refusal is a backend's 4xx answer to a fan-out job. The request
// itself is at fault, so no other backend would answer differently:
// fanOut does not fail the job over, and the caller relays the answer.
type refusal struct {
	status      int
	contentType string
	body        []byte
}

func (rf *refusal) Error() string {
	return fmt.Sprintf("status %d: %s", rf.status, bytes.TrimSpace(rf.body))
}

// splitCampaign decodes a campaign document and decides how to route
// it. shardable=true means the request is an inline-spec, full-range,
// non-partial campaign the router may fan out; otherwise it must be
// forwarded whole under key (empty when the document is malformed —
// some deterministic backend then produces the canonical error).
func splitCampaign(body []byte) (req web.CampaignRequest, key string, shardable bool) {
	if len(body) > maxBatchBytes {
		return req, "", false
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, "", false
	}
	switch {
	case req.Problem != "" && req.Spec == "":
		return req, "name/" + req.Problem, false
	case req.Spec != "" && req.Problem == "" && len(req.Spec) <= maxSpecBytes:
		p, err := spec.ParseString(req.Spec)
		if err != nil {
			return req, "", false
		}
		key = "fp/" + p.Fingerprint()
	default:
		return req, "", false
	}
	fullRange := req.Lo == 0 && (req.Hi == 0 || req.Hi == req.Runs)
	if req.Partial || !fullRange || req.Runs < 2 {
		return req, key, false
	}
	return req, key, true
}

// sendCampaignChunk posts one sub-range of the campaign to backend b
// with Partial=true and returns the rebuilt reducer, once it validates
// and folds exactly hi - lo runs.
func (rt *Router) sendCampaignChunk(ctx context.Context, b int, req web.CampaignRequest, lo, hi int) (*sim.Reducer, error) {
	sub := web.CampaignRequest{
		Spec:    req.Spec,
		Runs:    req.Runs,
		Seed:    req.Seed,
		Faults:  req.Faults,
		Lo:      lo,
		Hi:      hi,
		Partial: true,
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	resp, err := rt.send(ctx, b, b, http.MethodPost, "/simulate/campaign", "", "application/json", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	be := rt.backends[b]
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxBatchBytes))
		// Every chunk carries the same spec, runs, seed and faults, so
		// a refused chunk is the whole campaign's canonical answer.
		// Shedding (429) is load, not a verdict: that chunk fails over.
		if resp.StatusCode/100 == 4 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, &refusal{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: msg}
		}
		return nil, fmt.Errorf("backend %s: status %d: %s", be.name, resp.StatusCode, bytes.TrimSpace(msg[:min(len(msg), 512)]))
	}
	var part web.CampaignPartial
	if err := json.NewDecoder(resp.Body).Decode(&part); err != nil {
		return nil, fmt.Errorf("backend %s: %v", be.name, err)
	}
	if part.Lo != lo || part.Hi != hi {
		return nil, fmt.Errorf("backend %s: range [%d, %d) back for [%d, %d) sent", be.name, part.Lo, part.Hi, lo, hi)
	}
	// A partial that is inconsistent, or that folds a different number
	// of runs than the range holds, would skew every statistic of the
	// merge: fail the chunk instead, so fanOut retries it elsewhere.
	red := sim.ReducerFromWire(part.Reducer)
	if err := red.Validate(); err != nil {
		return nil, fmt.Errorf("backend %s: %v", be.name, err)
	}
	if red.Runs() != int64(hi-lo) {
		return nil, fmt.Errorf("backend %s: partial folds %d runs for range [%d, %d)", be.name, red.Runs(), lo, hi)
	}
	return red, nil
}
