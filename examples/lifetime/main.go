// Mission lifetime: the paper opens with the constraint that "the
// life-time of its mission is limited by the amount of remaining
// battery energy". This example asks the direct question: how far does
// the rover get on one battery? It runs both policies to exhaustion on
// a range of pack sizes, then shows the flight-software workflow of
// section 5.3 — precompute the schedule library on the ground, save it,
// reload it, and drive the mission from the reloaded library.
//
//	go run ./examples/lifetime
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
	"repro/internal/mission"
	"repro/internal/rover"
	"repro/internal/runtime"
	"repro/internal/sched"
)

func main() {
	phases := mission.PaperScenario()

	fmt.Println("distance achieved before battery exhaustion (7 cm steps):")
	fmt.Printf("%12s %8s %14s\n", "battery (J)", "JPL", "power-aware")
	for _, capacity := range []float64{1000, 2000, 3000, 5000} {
		jpl, err := mission.Range(phases, &mission.JPLPolicy{},
			&impacct.Battery{Capacity: capacity, MaxPower: 10}, 0)
		if err != nil {
			log.Fatal(err)
		}
		pa, err := mission.Range(phases, &mission.PowerAwarePolicy{},
			&impacct.Battery{Capacity: capacity, MaxPower: 10}, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12.0f %8d %14d\n", capacity, jpl.TotalSteps, pa.TotalSteps)
	}

	// Ground segment: compute the library and "uplink" it (serialize).
	var library runtime.Selector
	for _, c := range rover.Cases {
		p := rover.BuildIteration(c, rover.Cold)
		r, err := sched.Run(p, sched.Options{})
		if err != nil {
			log.Fatal(err)
		}
		library.Add(runtime.NewEntry(p.Name, r.EffectiveProblem(), r.Schedule))
	}
	var uplink bytes.Buffer
	if err := runtime.Save(&uplink, &library); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nschedule library serialized: %d bytes for %d schedules\n",
		uplink.Len(), len(library.Entries()))

	// Flight segment: reload (with independent re-verification) and fly.
	onboard, err := runtime.Load(&uplink)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mission.Simulate(mission.Config{
		TargetSteps: 48,
		Phases:      phases,
		Policy:      &mission.SelectorPolicy{Library: onboard, BatteryMax: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mission from the reloaded library: %d steps in %d s, %.0f J battery\n",
		rep.TotalSteps, rep.TotalSeconds, rep.TotalCost)
}
