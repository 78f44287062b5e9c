// Package schedule provides the schedule representation, the compiled
// constraint-graph form of a problem, time-validity checking, and the
// slack analysis the paper's heuristics are built on.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/model"
)

// InfiniteSlack is returned for tasks with no outgoing timing
// constraints: such a task can be delayed arbitrarily (at the cost of
// possibly extending the finish time).
const InfiniteSlack = math.MaxInt / 4

// Compiled is a problem lowered onto a constraint graph: one vertex per
// task plus a virtual anchor vertex that starts at time 0.
type Compiled struct {
	Prob   *model.Problem
	Index  map[string]int // task name -> vertex
	Anchor int            // anchor vertex id (== len(Prob.Tasks))
	// Base holds the problem's own constraint edges (anchor releases,
	// min/max separations). Schedulers clone or extend it with
	// serialization, delay, and lock edges.
	Base *graph.Graph
	// Choices holds, per task, the admissible (machine, level) options
	// with effective delays and powers, in the scheduler's preference
	// order (shortest delay first). For a degenerate problem every task
	// has exactly one choice carrying its nominal delay and power.
	Choices [][]model.TaskChoice
	// Hetero caches Prob.Heterogeneous(): false selects the paper's
	// degenerate code paths (no assignment bookkeeping at all).
	Hetero bool
	// Res maps each task to a dense resource id — tasks sharing a
	// Resource string share an id, numbered by first appearance — and
	// NumRes counts the ids. The timing search's serialization loops
	// compare these ints instead of the resource strings.
	Res    []int
	NumRes int
	// resTasks lists the tasks of each resource id in ascending index
	// order: resource r's members are resTasks[resStart[r]:resStart[r+1]].
	resStart []int
	resTasks []int
}

// Compile validates the problem and lowers its constraints to graph
// edges:
//
//	min separation  sigma(v) >= sigma(u) + s   ->  edge (u -> v, s)
//	max separation  sigma(v) <= sigma(u) + m   ->  edge (v -> u, -m)
//	anchor -> every task, weight 0             (start times are >= 0)
func Compile(p *model.Problem) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Tasks)
	c := &Compiled{
		Prob:   p,
		Index:  p.TaskIndex(),
		Anchor: n,
	}
	vertex := func(name string) int {
		if name == model.Anchor {
			return c.Anchor
		}
		return c.Index[name]
	}
	// Size the arena exactly: one release edge per task plus one (or
	// two, with a max bound) per constraint.
	edges := n + len(p.Constraints)
	for _, con := range p.Constraints {
		if con.HasMax {
			edges++
		}
	}
	c.Base = graph.New(n+1, edges)
	for v := 0; v < n; v++ {
		c.Base.AddEdge(c.Anchor, v, 0)
	}
	for _, con := range p.Constraints {
		u, v := vertex(con.From), vertex(con.To)
		c.Base.AddEdge(u, v, con.Min)
		if con.HasMax {
			c.Base.AddEdge(v, u, -con.Max)
		}
	}
	c.Res = make([]int, n)
	resID := make(map[string]int, n)
	for i := range p.Tasks {
		id, ok := resID[p.Tasks[i].Resource]
		if !ok {
			id = len(resID)
			resID[p.Tasks[i].Resource] = id
		}
		c.Res[i] = id
	}
	c.NumRes = len(resID)
	csr := make([]int, c.NumRes+1+n)
	c.resStart, c.resTasks = csr[:c.NumRes+1], csr[c.NumRes+1:]
	for _, r := range c.Res {
		c.resStart[r+1]++
	}
	for r := 0; r < c.NumRes; r++ {
		c.resStart[r+1] += c.resStart[r]
	}
	for i, r := range c.Res { // resStart[r] is r's fill cursor here
		c.resTasks[c.resStart[r]] = i
		c.resStart[r]++
	}
	copy(c.resStart[1:], c.resStart[:c.NumRes])
	c.resStart[0] = 0
	c.Hetero = p.Heterogeneous()
	// Every task's choices live in one bank sized for the most a task
	// can have (machines x levels), so the sub-slices never move.
	room := 0
	for i := range p.Tasks {
		room += max(1, len(p.Machines)) * max(1, len(p.Tasks[i].Levels))
	}
	bank := make([]model.TaskChoice, 0, room)
	c.Choices = make([][]model.TaskChoice, n)
	for i := range c.Choices {
		from := len(bank)
		bank = p.AppendTaskChoices(bank, i)
		c.Choices[i] = bank[from:len(bank):len(bank)]
	}
	return c, nil
}

// NumTasks returns the number of real (non-anchor) tasks.
func (c *Compiled) NumTasks() int { return len(c.Prob.Tasks) }

// ResMembers returns the tasks of resource id r in ascending index
// order. The slice is shared: callers must not modify it.
func (c *Compiled) ResMembers(r int) []int { return c.resTasks[c.resStart[r]:c.resStart[r+1]] }

// Schedule assigns a start time to every task of a problem. Start is
// indexed by task position in Problem.Tasks.
type Schedule struct {
	Start []model.Time
}

// Clone returns an independent copy.
func (s Schedule) Clone() Schedule {
	return Schedule{Start: append([]model.Time(nil), s.Start...)}
}

// Finish returns the finish time tau: the latest task completion.
// Indexed field access, not a value range: model.Task is ~88 bytes and
// this is called on scheduler hot paths, where copying every task per
// call shows up as runtime.duffcopy.
func (s Schedule) Finish(tasks []model.Task) model.Time {
	var tau model.Time
	for i := range tasks {
		if end := s.Start[i] + tasks[i].Delay; end > tau {
			tau = end
		}
	}
	return tau
}

// Slack computes Delta_sigma(v): the maximum amount task v's start can
// be delayed, all other start times held fixed, without violating any
// constraint edge of g. Per the paper it is determined by v's outgoing
// edges: Delta(v) = min over (v -> u, w) of sigma(u) - sigma(v) - w,
// where sigma(anchor) = 0. Tasks with no outgoing edges have
// InfiniteSlack. A negative result indicates the schedule already
// violates a constraint.
func Slack(g *graph.Graph, c *Compiled, s Schedule, v int) model.Time {
	slack := model.Time(InfiniteSlack)
	sigma := func(x int) model.Time {
		if x == c.Anchor {
			return 0
		}
		return s.Start[x]
	}
	for id := g.FirstOut(v); id >= 0; id = g.NextOut(id) {
		e := g.Edge(id)
		if d := sigma(e.To) - sigma(v) - e.W; d < slack {
			slack = d
		}
	}
	return slack
}

// CheckTimeValid reports the first violated requirement of
// time-validity: every start time is >= 0, every constraint edge of g
// holds, and tasks sharing a resource do not overlap. A nil error means
// sigma is time-valid.
func CheckTimeValid(g *graph.Graph, c *Compiled, s Schedule) error {
	return CheckTimeValidTasks(g, c, c.Prob.Tasks, s)
}

// CheckTimeValidTasks is CheckTimeValid against an explicit (effective)
// task view: heterogeneous schedulers pass the tasks carrying the
// chosen machine/level delays, whose serialization the check must use.
// Machine exclusivity is enforced by the scheduler's machine
// serialization edges, which are part of g and therefore checked here
// like every other constraint edge.
func CheckTimeValidTasks(g *graph.Graph, c *Compiled, tasks []model.Task, s Schedule) error {
	if len(s.Start) != c.NumTasks() {
		return fmt.Errorf("schedule: has %d starts for %d tasks", len(s.Start), c.NumTasks())
	}
	sigma := func(x int) model.Time {
		if x == c.Anchor {
			return 0
		}
		return s.Start[x]
	}
	for i, st := range s.Start {
		if st < 0 {
			return fmt.Errorf("schedule: task %q starts at negative time %d", c.Prob.Tasks[i].Name, st)
		}
	}
	for id := 0; id < g.NumEdges(); id++ {
		if e := g.Edge(id); sigma(e.To) < sigma(e.From)+e.W {
			return fmt.Errorf("schedule: constraint sigma(%s) >= sigma(%s)%+d violated (%d < %d)",
				name(c, e.To), name(c, e.From), e.W, sigma(e.To), sigma(e.From)+e.W)
		}
	}
	return CheckSerialized(tasks, s)
}

// CheckSerialized verifies that tasks mapped to the same resource never
// overlap in time.
func CheckSerialized(tasks []model.Task, s Schedule) error {
	byRes := make(map[string][]int)
	for i, t := range tasks {
		byRes[t.Resource] = append(byRes[t.Resource], i)
	}
	for res, idxs := range byRes {
		sort.Slice(idxs, func(a, b int) bool {
			if s.Start[idxs[a]] != s.Start[idxs[b]] {
				return s.Start[idxs[a]] < s.Start[idxs[b]]
			}
			return idxs[a] < idxs[b]
		})
		for k := 0; k+1 < len(idxs); k++ {
			a, b := idxs[k], idxs[k+1]
			if s.Start[a]+tasks[a].Delay > s.Start[b] {
				return fmt.Errorf("schedule: resource %s conflict: %q [%d,%d) overlaps %q [%d,%d)",
					res, tasks[a].Name, s.Start[a], s.Start[a]+tasks[a].Delay,
					tasks[b].Name, s.Start[b], s.Start[b]+tasks[b].Delay)
			}
		}
	}
	return nil
}

// Equal reports whether two schedules assign identical start times.
func (s Schedule) Equal(o Schedule) bool {
	if len(s.Start) != len(o.Start) {
		return false
	}
	for i := range s.Start {
		if s.Start[i] != o.Start[i] {
			return false
		}
	}
	return true
}

func name(c *Compiled, v int) string {
	if v == c.Anchor {
		return model.Anchor
	}
	return c.Prob.Tasks[v].Name
}
