package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/service"
	"repro/internal/web"
)

// ShardStats is one backend's contribution to the aggregated /stats
// document: either its stats snapshot or the error that kept the
// router from fetching one ("unreachable: ..." for transport
// failures), plus the router's health verdict for the backend.
type ShardStats struct {
	Backend string        `json:"backend"`
	Health  string        `json:"health"` // "up", "down", or "unprobed"
	Error   string        `json:"error,omitempty"`
	Stats   *web.StatsDoc `json:"stats,omitempty"`
}

// RouterStats is the router's own counter block inside the /stats
// document: failovers, hedges, and membership churn observed at this
// router, plus the live per-backend health view.
type RouterStats struct {
	Retries     int64           `json:"retries"`
	Hedges      int64           `json:"hedges"`
	Transitions int64           `json:"membership_transitions"`
	Recoveries  int64           `json:"membership_recoveries"`
	Backends    []BackendHealth `json:"backends"`
}

// StatsResponse is the router's GET /stats document: the per-shard
// snapshots plus an aggregate summing every counter across reachable
// shards (gauges like Queued and store sizes sum too — the tier-wide
// totals are what capacity planning wants) and the router's own
// failover/health counters.
type StatsResponse struct {
	Aggregate service.Stats `json:"aggregate"`
	Router    RouterStats   `json:"router"`
	Shards    []ShardStats  `json:"shards"`
}

// stats fans GET /stats out to every backend concurrently and answers
// with the per-shard snapshots and their sum. A dead shard degrades to
// an "unreachable" entry — never an error for the whole fan-out — and
// the aggregate covers whoever answered.
func (rt *Router) stats(w http.ResponseWriter, r *http.Request) {
	shards := make([]ShardStats, len(rt.backends))
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		wg.Add(1)
		go func(i int, b backend) {
			defer wg.Done()
			shards[i].Backend = b.name
			u := *b.url
			u.Path = strings.TrimSuffix(u.Path, "/") + "/stats"
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u.String(), nil)
			if err != nil {
				shards[i].Error = err.Error()
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				shards[i].Error = "unreachable: " + err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				shards[i].Error = fmt.Sprintf("status %d", resp.StatusCode)
				return
			}
			var doc web.StatsDoc
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				shards[i].Error = err.Error()
				return
			}
			shards[i].Stats = &doc
		}(i, b)
	}
	wg.Wait()

	for i, h := range rt.Health() {
		shards[i].Health = h.State
	}
	var agg service.Stats
	for _, sh := range shards {
		if sh.Stats != nil {
			agg.Add(sh.Stats.Stats)
		}
	}
	self := RouterStats{
		Retries:     rt.retries.Load(),
		Hedges:      rt.hedges.Load(),
		Transitions: rt.transitions.Load(),
		Recoveries:  rt.recoveries.Load(),
		Backends:    rt.Health(),
	}
	data, err := json.MarshalIndent(StatsResponse{Aggregate: agg, Router: self, Shards: shards}, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}
