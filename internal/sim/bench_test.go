package sim

import (
	"fmt"
	"testing"

	"repro/internal/service"
)

// BenchmarkCampaign measures a 16-run rover fault campaign, sequential
// vs fanned across the worker pool — the headline number for the
// Monte-Carlo layer. Each iteration uses a fresh service so the
// content-addressed cache warms inside the measurement, exactly as a
// CLI invocation would. CI gates both variants on allocs/op (the
// streaming engine's constant-memory property is exact) and requires
// pooled-8 to beat sequential by 0.75 × min(CPUs, 8), the bound
// benchgate's -min-speedup 0.75 computes.
func BenchmarkCampaign(b *testing.B) {
	for _, workers := range []int{1, 8} {
		name := "sequential"
		if workers > 1 {
			name = fmt.Sprintf("pooled-%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := Campaign{
					Mission: PaperMission(),
					Faults:  DefaultFaults(),
					Runs:    16,
					Seed:    1,
					Svc:     service.New(service.Config{Workers: workers}),
				}
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
