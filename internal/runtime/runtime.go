// Package runtime implements the paper's closing observation of section
// 5.3: a statically computed power-aware schedule remains valid for a
// whole *range* of power constraints (the Fig. 7 schedule "can be
// directly applied to all cases where Pmax >= 16, Pmin <= 14, without
// recomputing"), so a library of precomputed schedules can be selected
// at run time as the environment changes, with no on-board scheduling.
package runtime

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/power"
	"repro/internal/schedule"
)

// Entry is one precomputed schedule together with its validity range.
type Entry struct {
	// Name labels the entry (e.g. "rover-best-cold").
	Name string
	// Prob and Sched are the problem instance and its schedule. Prob is
	// the problem the schedule executes: for a heterogeneous plan, its
	// resolved problem (sched.Result's EffectiveProblem).
	Prob  *model.Problem
	Sched schedule.Schedule
	// Profile is the schedule's power profile.
	Profile power.Profile
	// RequiredPmax is the smallest max-power budget under which the
	// schedule is power-valid: the profile's peak.
	RequiredPmax float64
	// FullUtilPmin is the largest min-power level at which the
	// schedule achieves full utilization (rho = 1): the profile's
	// floor over [0, tau).
	FullUtilPmin float64
	// Finish is the schedule's finish time.
	Finish model.Time
}

// NewEntry computes the validity range of a schedule from the tasks of
// p, the problem the schedule executes (see Entry.Prob).
func NewEntry(name string, p *model.Problem, s schedule.Schedule) Entry {
	prof := power.Build(p.Tasks, s, p.BasePower)
	return Entry{
		Name:         name,
		Prob:         p,
		Sched:        s,
		Profile:      prof,
		RequiredPmax: prof.Peak(),
		FullUtilPmin: prof.Floor(),
		Finish:       s.Finish(p.Tasks),
	}
}

// ValidFor reports whether the schedule satisfies a pmax budget.
func (e Entry) ValidFor(pmax float64) bool { return e.RequiredPmax <= pmax }

// FullyUtilizes reports whether the schedule wastes no free power at
// level pmin.
func (e Entry) FullyUtilizes(pmin float64) bool { return pmin <= e.FullUtilPmin }

// CostAt returns the schedule's energy cost for an arbitrary free-power
// level.
func (e Entry) CostAt(pmin float64) float64 { return e.Profile.EnergyCost(pmin) }

// Selector holds a library of precomputed schedules and picks the best
// valid one for the ambient power conditions.
type Selector struct {
	entries []Entry
}

// Add registers an entry.
func (s *Selector) Add(e Entry) { s.entries = append(s.entries, e) }

// Entries returns the registered entries.
func (s *Selector) Entries() []Entry { return append([]Entry(nil), s.entries...) }

// Select returns the best schedule valid under the pmax budget:
// shortest finish time first (performance), then lowest energy cost at
// the given pmin, then registration order. ok is false when no entry
// fits the budget.
func (s *Selector) Select(pmax, pmin float64) (Entry, bool) {
	var best Entry
	found := false
	for _, e := range s.entries {
		if !e.ValidFor(pmax) {
			continue
		}
		if !found {
			best, found = e, true
			continue
		}
		switch {
		case e.Finish < best.Finish:
			best = e
		case e.Finish == best.Finish && e.CostAt(pmin) < best.CostAt(pmin):
			best = e
		}
	}
	if !found {
		return Entry{}, false
	}
	return best, true
}

// Table renders the library as rows of name, validity range, finish
// time — the designer-facing summary of the schedule library.
func (s *Selector) Table() string {
	es := append([]Entry(nil), s.entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].RequiredPmax < es[j].RequiredPmax })
	out := fmt.Sprintf("%-24s %12s %14s %8s\n", "schedule", "needs Pmax>=", "full-util Pmin<=", "tau (s)")
	for _, e := range es {
		out += fmt.Sprintf("%-24s %12.4g %14.4g %8d\n", e.Name, e.RequiredPmax, e.FullUtilPmin, e.Finish)
	}
	return out
}
