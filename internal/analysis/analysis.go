// Package analysis provides the design-space exploration layer of the
// IMPACCT framework: constraint sweeps, Pareto fronts over the
// power/performance trade-off, heuristic comparisons for ablation
// studies, and a random problem generator for scaling experiments.
// The paper's stated purpose for the tool is "to enable the exploration
// of many more points in the design space"; this package is that loop.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/sched"
)

// Point is one evaluated design point.
type Point struct {
	// Pmax and Pmin are the constraints the point was scheduled under.
	Pmax, Pmin float64
	// Finish is the schedule finish time (0 when infeasible).
	Finish model.Time
	// EnergyCost and Utilization are the power metrics at Pmin.
	EnergyCost  float64
	Utilization float64
	// Err records infeasibility or a heuristic failure.
	Err error
}

// Feasible reports whether the point produced a schedule.
func (pt Point) Feasible() bool { return pt.Err == nil }

// SweepPmax schedules the problem once per max-power budget, holding
// Pmin fixed at the problem's value, and returns one point per budget
// in input order. Infeasible budgets yield points with Err set.
func SweepPmax(p *model.Problem, budgets []float64, opts sched.Options) []Point {
	pts := make([]Point, 0, len(budgets))
	for _, pm := range budgets {
		q := p.Clone()
		q.Pmax = pm
		if q.Pmin > pm {
			q.Pmin = pm
		}
		pts = append(pts, run(q, opts))
	}
	return pts
}

// SweepGrid evaluates every (pmax, pmin) combination with pmin <= pmax.
func SweepGrid(p *model.Problem, pmaxs, pmins []float64, opts sched.Options) []Point {
	var pts []Point
	for _, pm := range pmaxs {
		for _, pn := range pmins {
			if pn > pm {
				continue
			}
			q := p.Clone()
			q.Pmax, q.Pmin = pm, pn
			pts = append(pts, run(q, opts))
		}
	}
	return pts
}

func run(q *model.Problem, opts sched.Options) Point {
	pt := Point{Pmax: q.Pmax, Pmin: q.Pmin}
	r, err := sched.Run(q, opts)
	if err != nil {
		pt.Err = err
		return pt
	}
	pt.Finish = r.Finish()
	pt.EnergyCost = r.EnergyCost()
	pt.Utilization = r.Utilization()
	return pt
}

// Pareto returns the non-dominated feasible points of the
// finish-time/energy-cost trade-off, sorted by finish time. A point
// dominates another when it is no worse on both metrics and strictly
// better on one.
func Pareto(pts []Point) []Point {
	var feas []Point
	for _, pt := range pts {
		if pt.Feasible() {
			feas = append(feas, pt)
		}
	}
	sort.Slice(feas, func(i, j int) bool {
		if feas[i].Finish != feas[j].Finish {
			return feas[i].Finish < feas[j].Finish
		}
		return feas[i].EnergyCost < feas[j].EnergyCost
	})
	var front []Point
	bestCost := 0.0
	for _, pt := range feas {
		if len(front) == 0 || pt.EnergyCost < bestCost {
			if len(front) > 0 && front[len(front)-1].Finish == pt.Finish {
				continue
			}
			front = append(front, pt)
			bestCost = pt.EnergyCost
		}
	}
	return front
}

// FormatPoints renders points as an aligned table.
func FormatPoints(pts []Point) string {
	out := fmt.Sprintf("%8s %8s %8s %10s %6s\n", "Pmax", "Pmin", "tau(s)", "cost(J)", "util")
	for _, pt := range pts {
		if !pt.Feasible() {
			out += fmt.Sprintf("%8.4g %8.4g %8s %10s %6s  (%v)\n", pt.Pmax, pt.Pmin, "-", "-", "-", pt.Err)
			continue
		}
		out += fmt.Sprintf("%8.4g %8.4g %8d %10.2f %5.1f%%\n",
			pt.Pmax, pt.Pmin, pt.Finish, pt.EnergyCost, 100*pt.Utilization)
	}
	return out
}

// HeuristicRow is the outcome of one scheduler configuration on one
// problem, for ablation tables.
type HeuristicRow struct {
	Label       string
	Finish      model.Time
	EnergyCost  float64
	Utilization float64
	Stats       sched.Stats
	Err         error
}

// FormatHeuristicRows renders an ablation comparison as an aligned
// table.
func FormatHeuristicRows(rows []HeuristicRow) string {
	out := fmt.Sprintf("%-24s %8s %10s %6s %8s %8s\n",
		"configuration", "tau(s)", "cost(J)", "util", "scans", "moves")
	for _, r := range rows {
		if r.Err != nil {
			out += fmt.Sprintf("%-24s failed: %v\n", r.Label, r.Err)
			continue
		}
		out += fmt.Sprintf("%-24s %8d %10.2f %5.1f%% %8d %8d\n",
			r.Label, r.Finish, r.EnergyCost, 100*r.Utilization, r.Stats.Scans, r.Stats.Moves)
	}
	return out
}

// CompareHeuristics runs the full pipeline once per labeled option set.
func CompareHeuristics(p *model.Problem, configs map[string]sched.Options) []HeuristicRow {
	labels := make([]string, 0, len(configs))
	for l := range configs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	rows := make([]HeuristicRow, 0, len(labels))
	for _, l := range labels {
		row := HeuristicRow{Label: l}
		r, err := sched.Run(p.Clone(), configs[l])
		if err != nil {
			row.Err = err
		} else {
			row.Finish = r.Finish()
			row.EnergyCost = r.EnergyCost()
			row.Utilization = r.Utilization()
			row.Stats = r.Stats
		}
		rows = append(rows, row)
	}
	return rows
}
