package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// The campaign engine never retains per-run results: every run is
// folded into a Reducer the moment it finishes, and partial reducers
// (one per worker, one per shard) are merged into the campaign total.
// Summary memory is therefore independent of run count.
//
// Everything a Reducer accumulates is integer arithmetic — int64
// counters, fixed-point energy sums, bucketed histograms — so folding
// and merging are exactly associative AND commutative:
//
//	merge(fold(A), fold(B)) == fold(A ∥ B)
//
// holds bit-for-bit for any partition of the run set, not just
// approximately. That is what makes campaign summaries byte-identical
// at any worker count and any shard count: the only floats in a
// Summary are derived once, at Finalize time, from the same integers
// regardless of how the folds were grouped.

// energyScale is the fixed-point scale for battery-energy accumulation:
// joules are rounded to 1/2^20 J before summing, so the sum is an exact
// int64 no matter the fold order. Headroom: a 5 kJ mission costs
// ~2^33 units, so 10^6-run campaigns stay far below the int64 ceiling.
const energyScale = 1 << 20

// The quantile sketch is an integer log-linear histogram (the HDR
// layout): values below 2^(sketchSubBits+1) get exact buckets; above
// that, each power-of-two tier is split into 2^sketchSubBits linear
// sub-buckets, bounding the relative quantile error at 2^-sketchSubBits
// (~3%). Integer bucketing — bits.Len64, shifts — keeps the sketch
// deterministic across platforms, unlike float-log bucketing.
const (
	sketchSubBits = 5
	sketchSubMask = 1<<sketchSubBits - 1
	// sketchExact is the first non-exact bucket: values < sketchExact
	// are their own bucket index.
	sketchExact = 1 << (sketchSubBits + 1)
	// sketchBucketCount covers every non-negative int64.
	sketchBucketCount = (63-sketchSubBits)<<sketchSubBits + sketchExact
)

// sketch is a streaming quantile summary over non-negative int64
// samples (fixed-point energies, finish seconds). Constant size,
// mergeable by elementwise addition.
type sketch struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [sketchBucketCount]int64
}

// sketchBucket maps a sample to its bucket index.
func sketchBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < sketchExact {
		return int(u)
	}
	n := bits.Len64(u)
	shift := uint(n - sketchSubBits - 1)
	top := u >> shift // in [2^sketchSubBits, 2^(sketchSubBits+1))
	return int(uint64(n-sketchSubBits-1)<<sketchSubBits + top)
}

// sketchBucketValue is the representative sample of a bucket: the exact
// value for exact buckets, the covered interval's midpoint otherwise.
func sketchBucketValue(b int) float64 {
	if b < sketchExact {
		return float64(b)
	}
	shift := uint(b>>sketchSubBits - 1)
	lo := uint64(sketchExact/2+b&sketchSubMask) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (k *sketch) add(v int64) {
	if k.count == 0 || v < k.min {
		k.min = v
	}
	if k.count == 0 || v > k.max {
		k.max = v
	}
	k.count++
	k.sum += v
	k.buckets[sketchBucket(v)]++
}

func (k *sketch) merge(o *sketch) {
	if o.count == 0 {
		return
	}
	if k.count == 0 || o.min < k.min {
		k.min = o.min
	}
	if k.count == 0 || o.max > k.max {
		k.max = o.max
	}
	k.count += o.count
	k.sum += o.sum
	for b, c := range o.buckets {
		if c != 0 {
			k.buckets[b] += c
		}
	}
}

// quantile is the nearest-rank q-quantile estimate, clamped to the
// exact observed [min, max] so Max >= P95 >= P50 always orders.
func (k *sketch) quantile(q float64) float64 {
	rank := int64(math.Ceil(q * float64(k.count)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	v := float64(k.max)
	for b := range k.buckets {
		cum += k.buckets[b]
		if cum >= rank {
			v = sketchBucketValue(b)
			break
		}
	}
	if v < float64(k.min) {
		v = float64(k.min)
	}
	if v > float64(k.max) {
		v = float64(k.max)
	}
	return v
}

// dist renders the sketch as a Summary distribution, dividing by scale
// to undo fixed-point encoding.
func (k *sketch) dist(scale float64) Dist {
	if k.count == 0 {
		return Dist{}
	}
	return Dist{
		Mean: float64(k.sum) / scale / float64(k.count),
		P50:  k.quantile(0.50) / scale,
		P95:  k.quantile(0.95) / scale,
		Max:  float64(k.max) / scale,
	}
}

// wire serializes the sketch sparsely for shard transport.
func (k *sketch) wire() DistWire {
	w := DistWire{Count: k.count, Sum: k.sum, Min: k.min, Max: k.max}
	for b, c := range k.buckets {
		if c != 0 {
			w.Buckets = append(w.Buckets, [2]int64{int64(b), c})
		}
	}
	return w
}

// fromWire rebuilds the sketch from its transport form. It reports a
// bucket pair that is out of range or out of ascending order, which the
// rebuilt sketch could not show; validate checks the rest.
func (k *sketch) fromWire(w DistWire) error {
	k.count, k.sum, k.min, k.max = w.Count, w.Sum, w.Min, w.Max
	prev := int64(-1)
	for _, bc := range w.Buckets {
		if bc[0] <= prev || bc[0] >= sketchBucketCount {
			return fmt.Errorf("bucket index %d out of range or order", bc[0])
		}
		k.buckets[bc[0]] = bc[1]
		prev = bc[0]
	}
	return nil
}

// validate checks that the sketch holds count samples: non-negative
// fields, buckets summing to count, and min <= max when non-empty.
func (k *sketch) validate() error {
	if k.count < 0 || k.sum < 0 || k.min < 0 || k.max < 0 {
		return fmt.Errorf("negative field")
	}
	var n int64
	for _, c := range k.buckets {
		if c < 0 || c > math.MaxInt64-n {
			return fmt.Errorf("bucket count %d negative or overflowing", c)
		}
		n += c
	}
	if n != k.count {
		return fmt.Errorf("buckets sum to %d, count is %d", n, k.count)
	}
	if k.count > 0 && k.min > k.max {
		return fmt.Errorf("min %d > max %d", k.min, k.max)
	}
	return nil
}

// Reducer is the streaming, mergeable campaign accumulator. Workers
// fold runs into private reducers with Add; partial reducers merge
// with Merge; Finalize renders the Summary. The zero value is ready to
// use (allocate with NewReducer — the bucket arrays make it large).
type Reducer struct {
	runs            int64
	survived        int64
	deadlineMisses  int64
	reschedules     int64
	fallbacks       int64
	waits           int64
	verifyRejects   int64
	constraintDrops int64
	failures        map[string]int64
	reschedHist     []int64
	energy          sketch
	finish          sketch
	// wireErr is a defect of the transport form that the rebuilt
	// reducer cannot show (see sketch.fromWire); Validate reports it.
	wireErr error
}

// NewReducer allocates an empty reducer.
func NewReducer() *Reducer { return &Reducer{} }

// Runs reports how many runs have been folded in.
func (r *Reducer) Runs() int64 { return r.runs }

// Add folds one run outcome into the reducer.
func (r *Reducer) Add(res RunResult) {
	r.runs++
	r.reschedules += int64(res.Reschedules)
	r.fallbacks += int64(res.Fallbacks)
	r.waits += int64(res.Waits)
	r.verifyRejects += int64(res.VerifyRejects)
	r.constraintDrops += int64(res.ConstraintDrops)
	for len(r.reschedHist) <= res.Reschedules {
		r.reschedHist = append(r.reschedHist, 0)
	}
	r.reschedHist[res.Reschedules]++
	r.energy.add(int64(math.Round(res.EnergyCost * energyScale)))
	if res.Survived {
		r.survived++
		if res.DeadlineMiss {
			r.deadlineMisses++
		}
		r.finish.add(int64(res.Finish))
	} else {
		if r.failures == nil {
			r.failures = make(map[string]int64)
		}
		r.failures[res.Failure]++
	}
}

// Merge folds another reducer into this one. Merging is exact —
// integer sums, elementwise histogram addition, min/max — so the
// result is independent of merge order and grouping.
func (r *Reducer) Merge(o *Reducer) {
	r.runs += o.runs
	r.survived += o.survived
	r.deadlineMisses += o.deadlineMisses
	r.reschedules += o.reschedules
	r.fallbacks += o.fallbacks
	r.waits += o.waits
	r.verifyRejects += o.verifyRejects
	r.constraintDrops += o.constraintDrops
	for k, v := range o.failures {
		if r.failures == nil {
			r.failures = make(map[string]int64)
		}
		r.failures[k] += v
	}
	for len(r.reschedHist) < len(o.reschedHist) {
		r.reschedHist = append(r.reschedHist, 0)
	}
	for i, v := range o.reschedHist {
		r.reschedHist[i] += v
	}
	r.energy.merge(&o.energy)
	r.finish.merge(&o.finish)
	progReducerMerges.Add(1)
}

// Finalize renders the Summary. The reducer is not consumed; the same
// reducer finalizes to the same bytes every time.
func (r *Reducer) Finalize(seed int64) Summary {
	sum := Summary{
		Runs:            int(r.runs),
		Seed:            seed,
		Survived:        int(r.survived),
		DeadlineMisses:  int(r.deadlineMisses),
		Reschedules:     int(r.reschedules),
		Fallbacks:       int(r.fallbacks),
		Waits:           int(r.waits),
		VerifyRejects:   int(r.verifyRejects),
		ConstraintDrops: int(r.constraintDrops),
	}
	if r.runs > 0 {
		sum.SurvivalRate = float64(r.survived) / float64(r.runs)
		sum.DeadlineMissRate = float64(r.deadlineMisses) / float64(r.runs)
	}
	if len(r.failures) > 0 {
		sum.Failures = make(map[string]int, len(r.failures))
		for k, v := range r.failures {
			sum.Failures[k] = int(v)
		}
	}
	// Trim trailing zeros so the histogram length is determined by the
	// data, not by which worker saw the thrashiest run last.
	hist := r.reschedHist
	for len(hist) > 0 && hist[len(hist)-1] == 0 {
		hist = hist[:len(hist)-1]
	}
	if len(hist) > 0 {
		sum.RescheduleHist = append([]int64(nil), hist...)
	}
	sum.EnergyCost = r.energy.dist(energyScale)
	sum.Finish = r.finish.dist(1)
	return sum
}

// DistWire is the shard transport form of one quantile sketch: sparse
// [bucket, count] pairs in ascending bucket order, all integers.
type DistWire struct {
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// ReducerWire is the shard transport form of a partial reducer — the
// body a sub-campaign endpoint returns and a coordinator merges. All
// fields are integers, so decode(encode(r)) reproduces r exactly.
type ReducerWire struct {
	Runs            int64            `json:"runs"`
	Survived        int64            `json:"survived"`
	DeadlineMisses  int64            `json:"deadline_misses"`
	Reschedules     int64            `json:"reschedules"`
	Fallbacks       int64            `json:"fallbacks"`
	Waits           int64            `json:"waits"`
	VerifyRejects   int64            `json:"verify_rejects"`
	ConstraintDrops int64            `json:"constraint_drops"`
	Failures        map[string]int64 `json:"failures,omitempty"`
	RescheduleHist  []int64          `json:"reschedule_hist,omitempty"`
	Energy          DistWire         `json:"energy"`
	Finish          DistWire         `json:"finish"`
}

// Wire serializes the reducer for shard transport.
func (r *Reducer) Wire() ReducerWire {
	w := ReducerWire{
		Runs:            r.runs,
		Survived:        r.survived,
		DeadlineMisses:  r.deadlineMisses,
		Reschedules:     r.reschedules,
		Fallbacks:       r.fallbacks,
		Waits:           r.waits,
		VerifyRejects:   r.verifyRejects,
		ConstraintDrops: r.constraintDrops,
		Energy:          r.energy.wire(),
		Finish:          r.finish.wire(),
	}
	if len(r.failures) > 0 {
		w.Failures = make(map[string]int64, len(r.failures))
		for k, v := range r.failures {
			w.Failures[k] = v
		}
	}
	if len(r.reschedHist) > 0 {
		w.RescheduleHist = append([]int64(nil), r.reschedHist...)
	}
	return w
}

// ReducerFromWire rebuilds a partial reducer from its transport form.
func ReducerFromWire(w ReducerWire) *Reducer {
	r := &Reducer{
		runs:            w.Runs,
		survived:        w.Survived,
		deadlineMisses:  w.DeadlineMisses,
		reschedules:     w.Reschedules,
		fallbacks:       w.Fallbacks,
		waits:           w.Waits,
		verifyRejects:   w.VerifyRejects,
		constraintDrops: w.ConstraintDrops,
	}
	if len(w.Failures) > 0 {
		r.failures = make(map[string]int64, len(w.Failures))
		for k, v := range w.Failures {
			r.failures[k] = v
		}
	}
	if len(w.RescheduleHist) > 0 {
		r.reschedHist = append([]int64(nil), w.RescheduleHist...)
	}
	if err := r.energy.fromWire(w.Energy); err != nil {
		r.wireErr = fmt.Errorf("energy sketch: %w", err)
	}
	if err := r.finish.fromWire(w.Finish); err != nil && r.wireErr == nil {
		r.wireErr = fmt.Errorf("finish sketch: %w", err)
	}
	return r
}

// Validate checks the reducer's internal consistency: every counter is
// non-negative, survived <= runs and deadline misses <= survived, the
// failure counts sum to runs - survived, the reschedule histogram sums
// to runs with a weighted sum equal to reschedules, the energy sketch
// holds runs samples and the finish sketch survived samples. A reducer
// built by Add and Merge always passes; one rebuilt from a shard's
// wire form must pass before it is merged.
func (r *Reducer) Validate() error {
	if r.wireErr != nil {
		return fmt.Errorf("sim: reducer: %w", r.wireErr)
	}
	for _, c := range []int64{r.runs, r.survived, r.deadlineMisses, r.reschedules, r.fallbacks, r.waits, r.verifyRejects, r.constraintDrops} {
		if c < 0 {
			return fmt.Errorf("sim: reducer: negative counter %d", c)
		}
	}
	if r.survived > r.runs || r.deadlineMisses > r.survived {
		return fmt.Errorf("sim: reducer: survived %d, deadline misses %d, runs %d out of order", r.survived, r.deadlineMisses, r.runs)
	}
	// Every term is checked non-negative before it is added, so a sum
	// that would pass math.MaxInt64 is caught before it wraps.
	var failed int64
	for kind, c := range r.failures {
		if c < 0 || c > math.MaxInt64-failed {
			return fmt.Errorf("sim: reducer: failure count %q = %d negative or overflowing", kind, c)
		}
		failed += c
	}
	if failed != r.runs-r.survived {
		return fmt.Errorf("sim: reducer: failures sum to %d, want runs - survived = %d", failed, r.runs-r.survived)
	}
	var runs, resched int64
	for k, c := range r.reschedHist {
		if c < 0 || c > math.MaxInt64-runs || (k > 0 && c > (math.MaxInt64-resched)/int64(k)) {
			return fmt.Errorf("sim: reducer: reschedule histogram entry %d = %d negative or overflowing", k, c)
		}
		runs += c
		resched += int64(k) * c
	}
	if runs != r.runs || resched != r.reschedules {
		return fmt.Errorf("sim: reducer: reschedule histogram holds %d runs and %d reschedules, want %d and %d", runs, resched, r.runs, r.reschedules)
	}
	if err := r.energy.validate(); err != nil {
		return fmt.Errorf("sim: reducer: energy sketch: %w", err)
	}
	if err := r.finish.validate(); err != nil {
		return fmt.Errorf("sim: reducer: finish sketch: %w", err)
	}
	if r.energy.count != r.runs || r.finish.count != r.survived {
		return fmt.Errorf("sim: reducer: sketches hold %d and %d samples, want runs %d and survived %d", r.energy.count, r.finish.count, r.runs, r.survived)
	}
	return nil
}
