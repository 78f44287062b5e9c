package sim

import (
	"context"
	"sync"
	"testing"

	"repro/internal/service"
)

// BenchmarkCampaign measures a 16-run rover fault campaign — the
// headline number for the Monte-Carlo layer. CI gates sequential and
// pooled=8 on allocs/op (the streaming engine's constant-memory
// property is exact) and requires pooled=8 to beat sequential by
// 0.75 × min(CPUs, 8), the bound benchgate's -min-speedup 0.75
// computes.
func BenchmarkCampaign(b *testing.B) { benchmarkCampaign(b, 16) }

// The rest of the campaign ladder, skipped under -short:
// ~35 ms and ~0.5 s per sequential op on a 2-vCPU Xeon.
func BenchmarkCampaignLadder256(b *testing.B)  { benchmarkCampaignLadder(b, 256) }
func BenchmarkCampaignLadder4096(b *testing.B) { benchmarkCampaignLadder(b, 4096) }

func benchmarkCampaignLadder(b *testing.B, runs int) {
	if testing.Short() {
		b.Skipf("%d runs is a ladder rung; skipped under -short", runs)
	}
	benchmarkCampaign(b, runs)
}

// benchmarkCampaign runs a runs-long campaign three ways: on a worker
// pool of width 1 (sequential) and 8 (pooled=8), and as 2shard — the
// seed range split into two contiguous halves, each folded by its own
// campaign over its own service (a router fan-out over two backend
// processes), the partial reducers pushed through the wire format and
// merged in range order: the scatter-gather path minus the HTTP
// transport. Every iteration builds fresh services, so the
// content-addressed cache warms inside the measurement, exactly as a
// CLI invocation would.
func benchmarkCampaign(b *testing.B, runs int) {
	campaign := func(workers int) Campaign {
		return Campaign{
			Mission: PaperMission(),
			Faults:  DefaultFaults(),
			Runs:    runs,
			Seed:    1,
			Svc:     service.New(service.Config{Workers: workers}),
		}
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"pooled=8", 8}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := campaign(v.workers)
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("2shard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var (
				wg     sync.WaitGroup
				halves [2]*Reducer
				errs   [2]error
			)
			for s := 0; s < 2; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := campaign(8)
					red, err := c.ReduceRange(context.Background(), s*runs/2, (s+1)*runs/2)
					if err != nil {
						errs[s] = err
						return
					}
					halves[s] = ReducerFromWire(red.Wire())
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			halves[0].Merge(halves[1])
			halves[0].Finalize(1)
		}
	})
}
