package sim

import "sync/atomic"

// Campaign progress counters. They are process-global — a campaign is
// a whole-process activity — and the web layer snapshots them into
// /stats via Progress.
var (
	progRunsDone      atomic.Int64 // runs folded into a reducer (any outcome)
	progRunsFailed    atomic.Int64 // folded runs that did not survive
	progReducerMerges atomic.Int64 // Reducer.Merge calls (worker + shard merges)
	progHighWater     atomic.Int64 // highest completed run index, CAS-maxed
)

// progRunDone records one completed run: idx is the campaign run index
// (the seed-range position), failed reports a non-survival outcome.
// The high-water mark only ratchets upward.
func progRunDone(idx int, failed bool) {
	progRunsDone.Add(1)
	if failed {
		progRunsFailed.Add(1)
	}
	for {
		cur := progHighWater.Load()
		if int64(idx) <= cur {
			return
		}
		if progHighWater.CompareAndSwap(cur, int64(idx)) {
			return
		}
	}
}

// ProgressStats is a point-in-time snapshot of campaign progress,
// shaped for JSON (the /stats campaign block and -progress output).
type ProgressStats struct {
	RunsDone      int64 `json:"runs_done"`
	RunsFailed    int64 `json:"runs_failed"`
	ReducerMerges int64 `json:"reducer_merges"`
	SeedHighWater int64 `json:"seed_high_water"`
}

// Progress snapshots the process-global campaign counters.
func Progress() ProgressStats {
	return ProgressStats{
		RunsDone:      progRunsDone.Load(),
		RunsFailed:    progRunsFailed.Load(),
		ReducerMerges: progReducerMerges.Load(),
		SeedHighWater: progHighWater.Load(),
	}
}
