package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/schedule"
)

// TestTimingHeapMatchesLinearSelection runs the timing search under
// the audit, whose "select" query checks every heap pick against
// selectScan — the linear (dist, prio) minimum over the unvisited tasks
// above the depth's last tried sibling, the scan the heap replaces —
// over problems that backtrack: backtrackProblemN at several sizes and
// restarts, with the default budget and with budgets that run out, plus
// random deadline, degenerate and heterogeneous problems. The audited
// run must also equal the unaudited one: schedule, backtrack count and
// error.
func TestTimingHeapMatchesLinearSelection(t *testing.T) {
	type tc struct {
		name string
		p    *model.Problem
		opts Options
	}
	var cases []tc
	for _, k := range []int{2, 3, 5, 7, 9} {
		cases = append(cases, tc{fmt.Sprintf("bt%d", k), backtrackProblemN(k), Options{}})
		// Restart 0 needs k(k-1)/2 backtracks: these budgets run out.
		for _, budget := range []int{k * (k - 1) / 4, k*(k-1)/2 - 1} {
			if budget > 0 {
				cases = append(cases, tc{fmt.Sprintf("bt%d/budget%d", k, budget), backtrackProblemN(k), Options{MaxBacktracks: budget}})
			}
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		cases = append(cases, tc{fmt.Sprintf("deadlines%d", seed), genDeadlineProblem(seed), Options{}})
	}
	for seed := int64(0); seed < 20; seed++ {
		cases = append(cases, tc{fmt.Sprintf("gen%d", seed), genProblem(seed), Options{}})
		cases = append(cases, tc{fmt.Sprintf("hetero%d", seed), genHeteroProblem(seed), Options{}})
	}
	selects, backtracked, exhausted := 0, 0, 0
	for _, c := range cases {
		for r := 0; r < 4; r++ {
			want, wantErr := TimingRestart(c.p.Clone(), c.opts, r)
			var got *Result
			var gotErr error
			checks, auditErr := Audit(func() { got, gotErr = TimingRestart(c.p.Clone(), c.opts, r) })
			if auditErr != nil {
				t.Fatalf("%s restart %d: %v", c.name, r, auditErr)
			}
			selects += checks["select"]
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s restart %d: audited error %v, unaudited %v", c.name, r, gotErr, wantErr)
			}
			if gotErr != nil {
				exhausted++
				continue
			}
			if !got.Schedule.Equal(want.Schedule) || got.Stats.Backtracks != want.Stats.Backtracks {
				t.Fatalf("%s restart %d: audited %v (%d backtracks), unaudited %v (%d backtracks)", c.name, r,
					got.Schedule.Start, got.Stats.Backtracks, want.Schedule.Start, want.Stats.Backtracks)
			}
			if got.Stats.Backtracks > 0 {
				backtracked++
			}
		}
	}
	if backtracked < 20 || exhausted == 0 || selects == 0 {
		t.Fatalf("too weak: %d backtracked, %d ran out of budget, %d selections checked", backtracked, exhausted, selects)
	}
}

// TestResMembersAscending checks the timing search's same-resource
// edge loop adds its edges in the order the scan over all tasks did:
// each resource's member list is exactly the tasks with that resource,
// in ascending index order.
func TestResMembersAscending(t *testing.T) {
	probs := []*model.Problem{backtrackProblemN(5)}
	for seed := int64(0); seed < 20; seed++ {
		probs = append(probs, genProblem(seed), genHeteroProblem(seed), genDeadlineProblem(seed))
	}
	for _, p := range probs {
		c, err := schedule.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c.NumRes; r++ {
			var want []int
			for u := range c.Res {
				if c.Res[u] == r {
					want = append(want, u)
				}
			}
			if got := c.ResMembers(r); !slices.Equal(got, want) {
				t.Fatalf("%s: resource %d members %v, scan %v", p.Name, r, got, want)
			}
		}
	}
}

// genDeadlineProblem is a small random problem over two resources with
// release-to-deadline windows tight enough that the timing search
// backtracks. A failed visit raises only its own resource's tasks, so
// the rollback must restore the candidate order between the resources.
func genDeadlineProblem(seed int64) *model.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &model.Problem{Name: fmt.Sprintf("deadlines-%d", seed)}
	n := 4 + rng.Intn(5)
	for i := 0; i < n; i++ {
		p.AddTask(model.Task{
			Name:     fmt.Sprintf("t%d", i),
			Resource: fmt.Sprintf("R%d", rng.Intn(2)),
			Delay:    1 + rng.Intn(4),
			Power:    1,
		})
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			p.Deadline(p.Tasks[i].Name, model.Time(rng.Intn(2*n)))
		}
	}
	return p
}
