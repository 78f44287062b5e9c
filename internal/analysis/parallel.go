package analysis

import (
	"context"

	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/service"
)

// SweepPmaxParallel is SweepPmax submitted through a scheduling
// service: design points are evaluated concurrently on the service's
// worker pool, and each point's schedule lands in (or is served from)
// the content-addressed cache, so re-sweeping overlapping budget lists
// only computes the new points. A nil svc selects service.Shared().
func SweepPmaxParallel(p *model.Problem, budgets []float64, opts sched.Options, svc *service.Service) []Point {
	return SweepPmaxParallelCtx(context.Background(), p, budgets, opts, svc)
}

// SweepPmaxParallelCtx is SweepPmaxParallel under a context. Once ctx
// is done, unfinished points carry the context's error in their Err
// field, so a partial sweep is distinguishable point by point.
func SweepPmaxParallelCtx(ctx context.Context, p *model.Problem, budgets []float64, opts sched.Options, svc *service.Service) []Point {
	if svc == nil {
		svc = service.Shared()
	}
	reqs := make([]service.Request, len(budgets))
	probs := make([]*model.Problem, len(budgets))
	for i, pm := range budgets {
		q := p.Clone()
		q.Pmax = pm
		if q.Pmin > pm {
			q.Pmin = pm
		}
		probs[i] = q
		reqs[i] = service.Request{Problem: q, Opts: opts, Stage: service.StageMinPower}
	}
	resps := svc.ScheduleBatchCtx(ctx, reqs)
	pts := make([]Point, len(budgets))
	for i, resp := range resps {
		pt := Point{Pmax: probs[i].Pmax, Pmin: probs[i].Pmin}
		if resp.Err != nil {
			pt.Err = resp.Err
		} else {
			pt.Finish = resp.Result.Finish()
			pt.EnergyCost = resp.Result.EnergyCost()
			pt.Utilization = resp.Result.Utilization()
		}
		pts[i] = pt
	}
	return pts
}
