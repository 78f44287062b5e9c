package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/schedule"
)

// auditor checks every answer the stages take from the incremental
// core against its from-scratch reference and latches the first wrong
// one. Portfolio workers report concurrently, hence the mutex; each
// state's reference profile is memoized separately (a state belongs to
// one worker).
type auditor struct {
	mu     sync.Mutex
	err    error
	checks map[string]int
	refs   map[*state]*refProfile
}

func (a *auditor) check(st *state, q string, v int, t model.Time, got any) {
	a.mu.Lock()
	ref := a.refs[st]
	if ref == nil {
		ref = &refProfile{}
		a.refs[st] = ref
	}
	a.mu.Unlock()
	err := checkAnswer(st, ref, q, v, t, got)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.checks[q]++
	if err != nil && a.err == nil {
		a.err = fmt.Errorf("audit %s: %w", q, err)
	}
}

// refProfile memoizes power.Build of the working schedule: consecutive
// profile queries on an unchanged schedule and task view share one
// from-scratch build.
type refProfile struct {
	starts []model.Time
	tasks  []model.Task
	prof   power.Profile
}

func (r *refProfile) of(st *state, sigma schedule.Schedule) power.Profile {
	same := len(r.starts) == len(sigma.Start) && slices.Equal(r.starts, sigma.Start)
	for v := 0; same && v < len(st.tasks); v++ {
		same = st.tasks[v].Delay == r.tasks[v].Delay && st.tasks[v].Power == r.tasks[v].Power
	}
	if !same {
		r.starts = append(r.starts[:0], sigma.Start...)
		r.tasks = append(r.tasks[:0], st.tasks...)
		r.prof = power.Build(st.tasks, sigma, st.c.Prob.BasePower)
	}
	return r.prof
}

// checkAnswer recomputes the answer to query q from scratch — the graph
// by longest paths, the profile by power.Build and segment walks, slack
// and time-validity by the schedule package — and reports a mismatch.
// It never asks the tracker for a profile, so auditing leaves the
// tracker's reference and materialization count untouched.
func checkAnswer(st *state, memo *refProfile, q string, v int, t model.Time, got any) error {
	n := st.c.NumTasks()
	sigma := schedule.Schedule{Start: st.cur[:n:n]}
	prob := st.c.Prob
	switch q {
	case "visit":
		if got.(bool) {
			return checkDist(st, st.dist)
		}
		return nil
	case "backtrack":
		return checkDist(st, st.dist)
	case "slack":
		if want := schedule.Slack(st.g, st.c, sigma, v); got.(model.Time) != want {
			return fmt.Errorf("task %d served slack %d, graph says %d", v, got, want)
		}
		return nil
	case "gapcands":
		if want := gapCandidatesScan(st, sigma, t); !slices.Equal(got.([]int), want) {
			return fmt.Errorf("candidates at t=%d are %v, full scan says %v", t, got, want)
		}
		return nil
	case "select":
		if want := selectScan(st, v); got.(int) != want {
			return fmt.Errorf("picked task %d after sibling %d, linear scan picks %d", got, v, want)
		}
		return nil
	case "timevalid":
		if want := schedule.CheckTimeValidTasks(st.g, st.c, st.tasks, sigma) == nil; got.(bool) != want {
			return fmt.Errorf("stage claims time-valid %v, CheckTimeValidTasks says %v", got, want)
		}
		return nil
	case "delay", "undo":
		if err := checkDist(st, st.cur); err != nil {
			return err
		}
		return checkTracker(st)
	}

	// Profile queries: the tracker must follow cur, and its answers must
	// match the Build profile of cur.
	if err := checkTracker(st); err != nil {
		return err
	}
	ref := memo.of(st, sigma)
	var want any
	switch q {
	case "profile":
		if p := got.(power.Profile); len(p.Segs) != 0 || len(ref.Segs) != 0 {
			if !slices.Equal(p.Segs, ref.Segs) {
				return fmt.Errorf("tracker profile %v, Build %v", p, ref)
			}
		}
		return nil
	case "validmax":
		want = ref.Valid(prob.Pmax)
	case "firstabove":
		wt, ok := firstAboveWalk(ref, prob.Pmax)
		if ok != got.(bool) || (ok && wt != t) {
			return fmt.Errorf("first spike (%d, %v), walk says (%d, %v)", t, got, wt, ok)
		}
		return nil
	case "runendabove":
		want = runEndWalk(ref, t, func(p float64) bool { return p > prob.Pmax })
	case "runendbelow":
		want = runEndWalk(ref, t, func(p float64) bool { return p < prob.Pmin })
	case "rejects":
		if got.(bool) && !acceptFails(ref, prob.Pmax, prob.Pmin, t, st.curU+utilEps) {
			return fmt.Errorf("certified rejection of a move the Build profile accepts (tau %d)", t)
		}
		return nil
	default:
		return fmt.Errorf("unknown query %q", q)
	}
	if got != want {
		return fmt.Errorf("at t=%d got %v, reference %v", t, got, want)
	}
	return nil
}

// gapCandidatesScan is the scan the gap-candidate index replaces: every
// task finishing at or before t whose graph slack reaches t, insertion
// sorted from index order by descending power, then latest finish.
func gapCandidatesScan(st *state, sigma schedule.Schedule, t model.Time) []int {
	var cs []gapCand
	for v := range st.tasks {
		fin := sigma.Start[v] + st.tasks[v].Delay
		if fin > t || schedule.Slack(st.g, st.c, sigma, v) < t-fin+1 {
			continue
		}
		cs = append(cs, gapCand{v: v, power: st.tasks[v].Power, finish: fin})
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0; j-- {
			a, b := cs[j-1], cs[j]
			if b.power > a.power || (b.power == a.power && b.finish > a.finish) {
				cs[j-1], cs[j] = b, a
			} else {
				break
			}
		}
	}
	out := []int{}
	for _, c := range cs {
		out = append(out, c.v)
	}
	return out
}

// selectScan is the lazy minimum selection the timing heap replaces:
// the unvisited task with the smallest (dist, prio) strictly greater
// than that of last, the depth's last tried sibling (none when last <
// 0), or -1.
func selectScan(st *state, last int) int {
	c := -1
	for v := range st.visited {
		if st.visited[v] {
			continue
		}
		dv, pv := st.dist[v], st.prio[v]
		if last >= 0 && (dv < st.dist[last] || (dv == st.dist[last] && pv <= st.prio[last])) {
			continue
		}
		if c < 0 || dv < st.dist[c] || (dv == st.dist[c] && pv < st.prio[c]) {
			c = v
		}
	}
	return c
}

// checkDist compares a live longest-path bank with a from-scratch
// solution of the working graph.
func checkDist(st *state, dist []int) error {
	want, ok := st.g.LongestFrom(st.c.Anchor)
	if !ok {
		return errors.New("working graph has a positive cycle")
	}
	for w := range want {
		if dist[w] != want[w] {
			return fmt.Errorf("longest path to vertex %d is %d, live bank holds %d", w, want[w], dist[w])
		}
	}
	return nil
}

// checkTracker compares the tracker's starts with cur.
func checkTracker(st *state) error {
	for v := 0; v < st.c.NumTasks(); v++ {
		if st.tr.Start(v) != st.cur[v] {
			return fmt.Errorf("tracker start of task %d is %d, cur holds %d", v, st.tr.Start(v), st.cur[v])
		}
	}
	return nil
}

// acceptFails is the gap-fill acceptance test (power-valid, finish kept,
// utilization strictly raised) failing on a from-scratch profile.
func acceptFails(p power.Profile, pmax, pmin float64, tau model.Time, minU float64) bool {
	return !p.Valid(pmax) || p.Duration() > tau || !(p.Utilization(pmin) > minU)
}

// firstAboveWalk is the segment walk Tracker.FirstAbove replaces: the
// start of the first segment over pmax.
func firstAboveWalk(p power.Profile, pmax float64) (model.Time, bool) {
	for _, s := range p.Segs {
		if s.P > pmax {
			return s.T0, true
		}
	}
	return 0, false
}

// runEndWalk is the segment walk Tracker.RunEndAbove and RunEndBelow
// replace: the end of the maximal run of segments satisfying in that
// contains t, merging adjacent runs exactly like Spikes and Gaps, or
// t+1 when t lies in no such run.
func runEndWalk(p power.Profile, t model.Time, in func(float64) bool) model.Time {
	var t0, t1 model.Time
	have := false
	for _, s := range p.Segs {
		if !in(s.P) {
			continue
		}
		if have && t1 == s.T0 {
			t1 = s.T1
			continue
		}
		if have && t0 <= t && t < t1 {
			return t1
		}
		t0, t1 = s.T0, s.T1
		have = true
	}
	if have && t0 <= t && t < t1 {
		return t1
	}
	return t + 1
}

// assertAudited runs the min-power and max-power pipelines with the
// audit on, requiring every incremental answer to match its reference
// and the audited results to equal unaudited runs (the audit must not
// perturb the run it observes). A problem both runs reject identically
// is fine.
func assertAudited(t *testing.T, label string, p *model.Problem, opts Options) {
	t.Helper()
	for _, stage := range []struct {
		name string
		run  func(*model.Problem, Options) (*Result, error)
	}{{"min-power", MinPower}, {"max-power", MaxPower}} {
		var got *Result
		var gotErr error
		_, err := Audit(func() { got, gotErr = stage.run(p.Clone(), opts) })
		if err != nil {
			t.Fatalf("%s %s: %v", label, stage.name, err)
		}
		want, wantErr := stage.run(p.Clone(), opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s %s: error divergence: audited=%v unaudited=%v", label, stage.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !got.Schedule.Equal(want.Schedule) || got.Stats != want.Stats ||
			!reflect.DeepEqual(got.Profile.Segs, want.Profile.Segs) {
			t.Fatalf("%s %s: audited run diverged\n audited   %v %+v\n unaudited %v %+v",
				label, stage.name, got.Schedule.Start, got.Stats, want.Schedule.Start, want.Stats)
		}
	}
}

// auditFixture returns a state that has run the max-power stage on
// gapProblem, with the tracker synced to the working schedule, and the
// schedule view the stages use.
func auditFixture(t *testing.T) (*state, schedule.Schedule) {
	t.Helper()
	c, err := schedule.Compile(gapProblem())
	if err != nil {
		t.Fatal(err)
	}
	st := newState(context.Background(), c, Options{}, nil)
	st.reset(0)
	sigma, err := st.maxPower()
	if err != nil {
		t.Fatal(err)
	}
	st.syncProfile(sigma)
	return st, sigma
}

// TestAuditCatches shows the audit is not vacuous: for every property it
// checks, a state or answer violating that property is reported, while
// the untouched fixture passes.
func TestAuditCatches(t *testing.T) {
	cases := []struct {
		name, want string
		violate    func(st *state, sigma schedule.Schedule)
	}{
		{"clean", "", func(st *state, sigma schedule.Schedule) {
			st.gapCandidates(sigma, sigma.Finish(st.tasks)/2)
			st.slackOf(sigma, 0)
			st.prof()
			st.undoDelay(nil)
		}},
		{"stale slack", "served slack", func(st *state, sigma schedule.Schedule) {
			st.slackVal[0], st.slackOK[0] = st.slackOf(sigma, 0)+1, true
			st.slackOf(sigma, 0)
		}},
		{"tracker out of sync", "tracker start", func(st *state, sigma schedule.Schedule) {
			st.tr.Move(1, st.cur[1]+1)
			st.prof()
		}},
		{"corrupted cur", "longest path", func(st *state, sigma schedule.Schedule) {
			st.cur[2]++
			st.tr.Move(2, st.cur[2]) // keep the tracker in step: only the graph property breaks
			st.undoDelay(nil)
		}},
		{"corrupted timing dist", "longest path", func(st *state, sigma schedule.Schedule) {
			copy(st.dist, st.cur)
			st.dist[0]--
			audited(st, "backtrack", 0, 0, true)
		}},
		{"wrong profile", "tracker profile", func(st *state, sigma schedule.Schedule) {
			p := power.Build(st.tasks, sigma, st.c.Prob.BasePower)
			p.Segs[0].P = math.Nextafter(p.Segs[0].P, 0)
			audited(st, "profile", 0, 0, p)
		}},
		{"wrong validmax", "reference", func(st *state, sigma schedule.Schedule) {
			audited(st, "validmax", 0, 0, !st.tr.ValidMax(st.c.Prob.Pmax))
		}},
		{"wrong firstabove", "walk says", func(st *state, sigma schedule.Schedule) {
			audited(st, "firstabove", 0, 0, true) // the max-power result has no spike
		}},
		{"wrong runendabove", "reference", func(st *state, sigma schedule.Schedule) {
			audited(st, "runendabove", 0, 0, model.Time(0))
		}},
		{"wrong runendbelow", "reference", func(st *state, sigma schedule.Schedule) {
			audited(st, "runendbelow", 0, 0, model.Time(0))
		}},
		{"wrong gapcands", "full scan says", func(st *state, sigma schedule.Schedule) {
			audited(st, "gapcands", 0, 0, []int{0}) // nothing finishes by time 0
		}},
		{"wrong select", "linear scan picks", func(st *state, sigma schedule.Schedule) {
			audited(st, "select", -1, 0, 0) // the timing stage visited every task
		}},
		{"wrong timevalid", "CheckTimeValidTasks", func(st *state, sigma schedule.Schedule) {
			st.cur[0] = -1 // starts before time 0
			audited(st, "timevalid", 0, 0, true)
		}},
		{"unsound rejection", "certified rejection", func(st *state, sigma schedule.Schedule) {
			st.curU = -1 // any valid profile with the same finish is an acceptance
			audited(st, "rejects", 0, sigma.Finish(st.tasks), true)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, sigma := auditFixture(t)
			_, err := Audit(func() { tc.violate(st, sigma) })
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("clean fixture reported: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("violation not reported as %q: %v", tc.want, err)
			}
		})
	}
}

// TestAuditReachesEveryQuery guards the seam's wiring: one audited run
// over a corpus that spikes, fills gaps under both gap slots and
// backtracks in the timing search checks every query kind at least
// once, so no call site silently fell out of the audit.
func TestAuditReachesEveryQuery(t *testing.T) {
	checks, err := Audit(func() {
		for seed := int64(0); seed < 10; seed++ {
			MinPower(genProblem(seed), Options{Seed: 3, Compact: true})
		}
		MinPower(gapProblem(), Options{})
		Timing(backtrackProblem(), Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"visit", "backtrack", "select", "slack", "gapcands", "timevalid", "delay", "undo",
		"profile", "validmax", "firstabove", "runendabove", "runendbelow", "rejects"}
	for _, q := range kinds {
		if checks[q] == 0 {
			t.Errorf("query %q never audited (checks: %v)", q, checks)
		}
	}
	if len(checks) != len(kinds) {
		t.Errorf("audited query kinds %v, want exactly %v", checks, kinds)
	}
}
