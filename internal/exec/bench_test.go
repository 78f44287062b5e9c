package exec

import (
	"testing"

	"repro/internal/power"
	"repro/internal/rover"
	"repro/internal/sched"
)

// BenchmarkExecute measures the second-by-second replay of one
// power-aware rover iteration against the worst-case supply — the
// inner loop of every Monte-Carlo simulation run.
func BenchmarkExecute(b *testing.B) {
	prob := rover.BuildIteration(rover.Worst, rover.Cold)
	r, err := sched.Run(prob, sched.Options{})
	if err != nil {
		b.Fatal(err)
	}
	par := rover.Table2(rover.Worst)
	sup := power.Supply{Solar: power.NewSolar(par.Solar)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat := power.Battery{MaxPower: par.BatteryMax}
		if _, err := Execute(prob, r.Schedule, sup, &bat, 0); err != nil {
			b.Fatal(err)
		}
	}
}
