package analysis

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// GenConfig parameterizes the random problem generator used for
// scaling and stress experiments. Problems are layered DAGs, which are
// always timing-feasible; the power budget is set relative to the
// generated task powers so max-power scheduling has real work to do.
type GenConfig struct {
	// Tasks is the number of tasks (default 20).
	Tasks int
	// Resources is the number of execution resources (default 4).
	Resources int
	// Layers is the precedence depth (default Tasks/5, min 2).
	Layers int
	// MaxDelay bounds task delays in [1, MaxDelay] (default 8).
	MaxDelay int
	// MaxPower bounds task powers in [1, MaxPower) (default 10); at 1
	// every task draws 1 W. Values below 1 are not meaningful: powers
	// are drawn as 1 + r·(MaxPower − 1).
	MaxPower float64
	// EdgeProb is the chance of a precedence edge between tasks in
	// adjacent layers (default 0.3).
	EdgeProb float64
	// WindowProb is the chance a precedence edge also carries a
	// (generous) max separation (default 0.2).
	WindowProb float64
	// BudgetFactor scales Pmax: the sum of the two largest task powers
	// times this factor (default 1.2), so some but not all parallelism
	// survives.
	BudgetFactor float64
	// Seed drives the generator.
	Seed int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Tasks == 0 {
		c.Tasks = 20
	}
	if c.Resources == 0 {
		c.Resources = 4
	}
	if c.Layers == 0 {
		c.Layers = max(2, c.Tasks/5)
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 8
	}
	if c.MaxPower == 0 {
		c.MaxPower = 10
	}
	if c.EdgeProb == 0 {
		c.EdgeProb = 0.3
	}
	if c.WindowProb == 0 {
		c.WindowProb = 0.2
	}
	if c.BudgetFactor == 0 {
		c.BudgetFactor = 1.2
	}
	return c
}

// Generate builds a random, feasible power-aware scheduling problem.
func Generate(cfg GenConfig) *model.Problem {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &model.Problem{Name: fmt.Sprintf("gen-%d-tasks-seed-%d", cfg.Tasks, cfg.Seed)}

	layerOf := make([]int, cfg.Tasks)
	for i := 0; i < cfg.Tasks; i++ {
		layerOf[i] = i * cfg.Layers / cfg.Tasks
		p.AddTask(model.Task{
			Name:     fmt.Sprintf("t%03d", i),
			Resource: fmt.Sprintf("R%d", rng.Intn(cfg.Resources)),
			Delay:    1 + rng.Intn(cfg.MaxDelay),
			Power:    1 + rng.Float64()*(cfg.MaxPower-1),
		})
	}

	for i := 0; i < cfg.Tasks; i++ {
		for j := i + 1; j < cfg.Tasks; j++ {
			if layerOf[j] != layerOf[i]+1 || rng.Float64() >= cfg.EdgeProb {
				continue
			}
			from, to := p.Tasks[i].Name, p.Tasks[j].Name
			min := p.Tasks[i].Delay
			if rng.Float64() < cfg.WindowProb {
				// Generous window: wide enough that a serialized
				// schedule still fits.
				p.Window(from, to, min, min+cfg.MaxDelay*cfg.Tasks)
			} else {
				p.MinSep(from, to, min)
			}
		}
	}

	// Power budget: allow roughly two heavy tasks in parallel.
	first, second := 0.0, 0.0
	for _, t := range p.Tasks {
		if t.Power > first {
			first, second = t.Power, first
		} else if t.Power > second {
			second = t.Power
		}
	}
	p.Pmax = (first + second) * cfg.BudgetFactor
	p.Pmin = p.Pmax / 2
	return p
}
