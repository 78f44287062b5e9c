package web

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/verify"
)

// HandoffOwnerHeader names the request header a router sets when it
// forwards a request to a shard that is not the key's rendezvous
// owner (failover, hedge, or a DOWN owner skipped at rank time). Its
// value is the owner's base URL; the answering shard ships the owner
// the computed record asynchronously (hinted handoff), so the owner's
// store is warm when it comes back.
const HandoffOwnerHeader = "X-Handoff-Owner"

// maxHandoffBytes bounds a POST /store/put document: a store record
// plus its spec, both well under this for in-bounds problems.
const maxHandoffBytes = 4 << 20

// maxHandoffShips bounds concurrent outbound handoff shipments; beyond
// it, shipments are dropped (counted as send errors) rather than
// queued — handoff is an optimization, and the owner recomputes on
// its next miss anyway.
const maxHandoffShips = 4

// handoffShipTimeout bounds one outbound shipment.
const handoffShipTimeout = 10 * time.Second

// handoffRecord is the POST /store/put wire document: the store key,
// the spec text of the problem the record answers (the receiver
// re-derives and re-verifies everything from it — a shipped record is
// never trusted), and the record bytes (base64 in JSON).
type handoffRecord struct {
	Key   string `json:"key"`
	Spec  string `json:"spec"`
	Value []byte `json:"value"`
}

// storePut ingests a hinted-handoff record shipped by a peer shard:
// the spec is re-parsed under the same bounds as an upload, the key
// must content-address that problem, and the decoded schedule must
// verify before anything lands in the store (service.IngestHandoff).
func (s *Server) storePut(w http.ResponseWriter, r *http.Request) {
	var rec handoffRecord
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxHandoffBytes)).Decode(&rec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("handoff record exceeds %d bytes", tooBig.Limit))
			return
		}
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if rec.Key == "" || rec.Spec == "" || len(rec.Value) == 0 {
		writeJSONError(w, http.StatusBadRequest, "handoff record needs key, spec, and value")
		return
	}
	p, err := spec.ParseString(rec.Spec)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "spec: "+err.Error())
		return
	}
	if err := checkSpecBounds(p); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	check := func(res *sched.Result) error {
		if rep := verify.Check(res.EffectiveProblem(), res.Schedule); !rep.OK() {
			return fmt.Errorf("schedule does not verify: %v", rep.Err())
		}
		return nil
	}
	switch err := s.svc.IngestHandoff(p, rec.Key, rec.Value, check); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, service.ErrNoStore):
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, service.ErrHandoffRejected):
		writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		writeJSONError(w, http.StatusInternalServerError, err.Error())
	}
}

// maybeShipHandoff starts an asynchronous hinted-handoff shipment when
// the request carried HandoffOwnerHeader: the just-computed (or
// cached) record is encoded and posted to the owner's /store/put, so
// the key's rendezvous owner warm-starts with the result it missed
// while down. Shipment is strictly best-effort — it never delays or
// fails the response that triggered it, and a dropped or failed ship
// only costs the owner one recompute. Single /schedule requests ship;
// batch items do not (the router retries batches at sub-batch
// granularity, so per-item owner attribution is not available there).
func (s *Server) maybeShipHandoff(r *http.Request, p *model.Problem, opts sched.Options, stage service.Stage, res *sched.Result) {
	owner := r.Header.Get(HandoffOwnerHeader)
	if owner == "" {
		return
	}
	u, err := url.Parse(owner)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return // not a routable owner address; nothing to ship to
	}
	rec := handoffRecord{
		Key:   service.StoreKey(p, opts, stage),
		Spec:  spec.Format(p),
		Value: service.EncodeResult(res),
	}
	select {
	case s.handoffSem <- struct{}{}:
	default:
		s.svc.NoteHandoffSent(errors.New("handoff: shipment slots full"))
		return
	}
	go func() {
		defer func() { <-s.handoffSem }()
		s.svc.NoteHandoffSent(s.shipHandoff(u.String(), rec))
	}()
}

// shipHandoff posts one handoff record to the owner's /store/put.
func (s *Server) shipHandoff(ownerBase string, rec handoffRecord) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), handoffShipTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ownerBase+"/store/put", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("handoff: owner answered status %d", resp.StatusCode)
	}
	return nil
}
