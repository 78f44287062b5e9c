package impacct

import (
	"repro/internal/service"
	"repro/internal/store"
)

// Scheduling service layer (see internal/service): a concurrency-safe
// front for the pipeline with a content-addressed result cache,
// singleflight deduplication, bounded batch fan-out, and metrics.
type (
	// SchedulingService caches and deduplicates pipeline runs.
	SchedulingService = service.Service
	// ServiceConfig tunes cache capacity and worker count.
	ServiceConfig = service.Config
	// ServiceStats is a metrics snapshot (the /stats JSON shape).
	ServiceStats = service.Stats
	// PipelineStage selects how much of the pipeline a request runs.
	PipelineStage = service.Stage
	// ResultStore is a persistent content-addressed result store (an
	// append-log with crash-safe recovery); wire one into
	// ServiceConfig.Store to back the in-memory cache with a
	// second-level tier that survives restarts.
	ResultStore = store.Store
	// ResultStoreOptions tunes a ResultStore's bounds and compaction.
	ResultStoreOptions = store.Options
)

// Pipeline stages for SchedulingService requests.
const (
	StageTiming   = service.StageTiming
	StageMaxPower = service.StageMaxPower
	StageMinPower = service.StageMinPower
)

// Resilience errors surfaced by the service layer. Detect with
// errors.Is.
var (
	// ErrOverloaded: admission control shed the request (back off and
	// retry; the web layer answers 429 with Retry-After).
	ErrOverloaded = service.ErrOverloaded
	// ErrInternal: a pipeline compute panicked and was contained at the
	// service boundary; the stack went to the metrics, not the caller.
	ErrInternal = service.ErrInternal
)

// NewService creates a scheduling service.
func NewService(cfg ServiceConfig) *SchedulingService { return service.New(cfg) }

// OpenResultStore opens (or creates) a persistent result store at
// path, recovering from a torn tail if the last process crashed
// mid-write. Close it after draining the service that uses it.
func OpenResultStore(path string, opts ResultStoreOptions) (*ResultStore, error) {
	return store.Open(path, opts)
}

// SharedService returns the process-wide default scheduling service.
func SharedService() *SchedulingService { return service.Shared() }
