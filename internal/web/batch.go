package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/spec"
)

// Batch wire protocol bounds. The whole document is read under
// maxBatchBytes (413 beyond, matching the single-spec contract); the
// item count is a search-space bound like maxSpecTasks (400 beyond).
const (
	maxBatchBytes = 8 << 20
	maxBatchItems = 256
)

// BatchItem is one entry of a POST /schedule/batch request. Exactly
// one of Problem (a registered problem name) or Spec (an inline spec
// document) selects the problem; the remaining fields mirror the
// single /schedule query parameters.
type BatchItem struct {
	Problem string `json:"problem,omitempty"`
	Spec    string `json:"spec,omitempty"`
	Stage   string `json:"stage,omitempty"`
	// Pointer fields distinguish "omitted" (server default, exactly
	// like the missing query parameter on GET /schedule) from an
	// explicit zero.
	Seed     *int64 `json:"seed,omitempty"`
	Restarts *int   `json:"restarts,omitempty"`
	Workers  *int   `json:"workers,omitempty"`
}

// BatchRequest is the POST /schedule/batch document.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is one entry of the response, in request order.
// Status carries the per-item HTTP contract (the envelope itself is
// 200 whenever the document parsed): 200 with the schedule document
// and summary metrics, or the single-endpoint error status with Error
// set. Fingerprint is the problem's content address — the router key.
type BatchItemResult struct {
	Status      int             `json:"status"`
	Error       string          `json:"error,omitempty"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Schedule    json.RawMessage `json:"schedule,omitempty"`
	Finish      model.Time      `json:"finish,omitempty"`
	Peak        float64         `json:"peak,omitempty"`
	EnergyCost  float64         `json:"energy_cost,omitempty"`
}

// BatchResponse is the POST /schedule/batch response document.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// resolveBatchItem validates one item without scheduling anything,
// returning the problem, options, and stage, or a per-item status.
func (s *Server) resolveBatchItem(it BatchItem) (*model.Problem, sched.Options, service.Stage, int, error) {
	var zero sched.Options
	var p *model.Problem
	switch {
	case it.Problem != "" && it.Spec != "":
		return nil, zero, 0, http.StatusBadRequest, errors.New("item sets both problem and spec")
	case it.Problem != "":
		q, ok := s.lookup(it.Problem)
		if !ok {
			return nil, zero, 0, http.StatusNotFound, fmt.Errorf("unknown problem %q", it.Problem)
		}
		p = q
	case it.Spec != "":
		if len(it.Spec) > maxSpecBytes {
			return nil, zero, 0, http.StatusRequestEntityTooLarge,
				fmt.Errorf("item spec exceeds %d bytes", maxSpecBytes)
		}
		q, err := spec.ParseString(it.Spec)
		if err != nil {
			return nil, zero, 0, http.StatusBadRequest, err
		}
		if err := checkSpecBounds(q); err != nil {
			return nil, zero, 0, http.StatusBadRequest, err
		}
		p = q
	default:
		return nil, zero, 0, http.StatusBadRequest, errors.New("item needs a problem name or an inline spec")
	}
	opts := s.opts
	if it.Seed != nil {
		opts.Seed = *it.Seed
	}
	if it.Restarts != nil {
		if *it.Restarts < 0 || *it.Restarts > maxRestarts {
			return nil, zero, 0, http.StatusBadRequest, fmt.Errorf("bad restarts (want 0..%d)", maxRestarts)
		}
		opts.Restarts = *it.Restarts
	}
	if it.Workers != nil {
		if *it.Workers < 0 || *it.Workers > maxWorkers {
			return nil, zero, 0, http.StatusBadRequest, fmt.Errorf("bad workers (want 0..%d)", maxWorkers)
		}
		opts.Workers = *it.Workers
	}
	stage, err := service.ParseStage(it.Stage)
	if err != nil {
		return nil, zero, 0, http.StatusBadRequest, errors.New("bad stage")
	}
	return p, opts, stage, 0, nil
}

// scheduleBatch is POST /schedule/batch: the amortized entry point for
// bulk scheduling. The document is parsed once, every valid item is
// resolved to a (problem, options, stage) request, and all of them run
// in a single ScheduleBatchCtx pass under the service's batch bound —
// identical items dedup through the cache and singleflight exactly
// like concurrent single requests. The response carries one entry per
// item, in order, each with its own status under the single-endpoint
// error contract.
func (s *Server) scheduleBatch(w http.ResponseWriter, r *http.Request) {
	var doc BatchRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
	if err := json.NewDecoder(body).Decode(&doc); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch exceeds %d bytes", tooBig.Limit))
			return
		}
		writeJSONError(w, http.StatusBadRequest, "bad batch document: "+err.Error())
		return
	}
	if len(doc.Items) == 0 {
		writeJSONError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(doc.Items) > maxBatchItems {
		writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items (max %d)", len(doc.Items), maxBatchItems))
		return
	}

	items := make([]BatchItemResult, len(doc.Items))
	var reqs []service.Request
	var reqIdx []int // reqs[j] answers items[reqIdx[j]]
	for i, it := range doc.Items {
		p, opts, stage, status, err := s.resolveBatchItem(it)
		if err != nil {
			items[i] = BatchItemResult{Status: status, Error: err.Error()}
			continue
		}
		items[i].Fingerprint = p.Fingerprint()
		reqs = append(reqs, service.Request{Problem: p, Opts: opts, Stage: stage})
		reqIdx = append(reqIdx, i)
	}

	resps := s.svc.ScheduleBatchCtx(r.Context(), reqs)
	for j, resp := range resps {
		i := reqIdx[j]
		if resp.Err != nil {
			status, msg := scheduleErrorStatus(resp.Err)
			items[i] = BatchItemResult{Status: status, Error: msg, Fingerprint: items[i].Fingerprint}
			continue
		}
		res := resp.Result
		doc, err := spec.FormatScheduleJSON(res.EffectiveProblem(), res.Schedule)
		if err != nil {
			items[i] = BatchItemResult{Status: http.StatusInternalServerError, Error: err.Error(), Fingerprint: items[i].Fingerprint}
			continue
		}
		items[i].Status = http.StatusOK
		items[i].Schedule = doc
		items[i].Finish = res.Finish()
		items[i].Peak = res.Peak()
		items[i].EnergyCost = res.EnergyCost()
	}

	data, err := json.Marshal(BatchResponse{Items: items})
	if err != nil {
		writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// checkSpecBounds applies the upload endpoint's problem-size bounds to
// an already-parsed problem (batch items arrive inside the batch
// document, so the byte bound is enforced separately).
func checkSpecBounds(p *model.Problem) error {
	if len(p.Tasks) > maxSpecTasks {
		return fmt.Errorf("spec has %d tasks (max %d)", len(p.Tasks), maxSpecTasks)
	}
	if len(p.Machines) > maxSpecMachines {
		return fmt.Errorf("spec has %d machines (max %d)", len(p.Machines), maxSpecMachines)
	}
	for _, task := range p.Tasks {
		if len(task.Levels) > maxSpecLevels {
			return fmt.Errorf("task %s has %d DVS levels (max %d)", task.Name, len(task.Levels), maxSpecLevels)
		}
	}
	if !withinHorizon(p) {
		return fmt.Errorf("spec's serial horizon exceeds %d s", model.MaxHorizon)
	}
	return nil
}

// withinHorizon reports whether p's serial horizon — the sum over tasks
// of the longest effective delay among each task's choices, plus the
// positive min separations — stays within model.MaxHorizon: the span of
// running every task one after another, each separation honoured.
// Verification samples a plan once per second up to its finish, so a
// problem past the horizon would buy every verify-gated serve of it an
// unbounded check.
func withinHorizon(p *model.Problem) bool {
	left := model.MaxHorizon
	var choices []model.TaskChoice
	for i := range p.Tasks {
		choices = p.AppendTaskChoices(choices[:0], i)
		longest := model.Time(0)
		for _, c := range choices {
			longest = max(longest, c.Delay)
		}
		if longest > left {
			return false
		}
		left -= longest
	}
	for _, con := range p.Constraints {
		if con.Min > left {
			return false
		}
		left -= max(con.Min, 0)
	}
	return true
}
