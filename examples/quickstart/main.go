// Quickstart: build a Starlink-like constellation, run the global
// scheduler for five minutes of simulated time, and watch the
// 15-second reallocation cycle and its preferences in action.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scheduler"
)

func main() {
	// 1. Synthesize a constellation. Scale it down from the real ~4400
	// satellites so the example runs in a second.
	cons, err := constellation.New(constellation.Config{
		Shells: []constellation.Shell{
			{Name: "shell1", AltitudeKm: 550, InclinationDeg: 53, Planes: 48, SatsPerPlane: 20, PhasingF: 17},
			{Name: "shell3", AltitudeKm: 570, InclinationDeg: 70, Planes: 14, SatsPerPlane: 14, PhasingF: 5},
		},
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("constellation: %d satellites across 2 shells\n", cons.Len())

	// 2. Place a terminal at the paper's Iowa site and check its view.
	iowa, err := geo.VantagePointByName("Iowa")
	if err != nil {
		log.Fatal(err)
	}
	// A snapshot cache propagates the constellation once per instant
	// and answers field-of-view queries from its spatial index.
	at := cons.Epoch.Add(time.Hour)
	snap := constellation.NewSnapshotCache(0, nil).Acquire(cons, at)
	fov := snap.AppendObserveFrom(nil, iowa.Location, 25, false)
	snap.Release()
	fmt.Printf("satellites above 25 degrees at %s: %d\n", iowa.Name, len(fov))
	if len(fov) > 0 {
		best := fov[0]
		fmt.Printf("highest: %s at elevation %.1f, azimuth %.1f, range %.0f km, sunlit=%v\n",
			best.Sat.Name, best.Look.ElevationDeg, best.Look.AzimuthDeg, best.Look.RangeKm, best.Sunlit)
	}

	// 3. Run the global scheduler: allocations change every 15 s at
	// :12/:27/:42/:57 — the signature the paper discovered.
	sched, err := scheduler.NewGlobal(scheduler.Config{
		Constellation: cons,
		Terminals:     []scheduler.Terminal{{VantagePoint: iowa}},
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nslot_start               satellite    elev   azim  sunlit")
	start := scheduler.EpochStart(at)
	prev := 0
	changes := 0
	var elevs []float64
	var allocs []scheduler.Allocation // reused slot to slot
	for i := 0; i < 20; i++ {
		slot := start.Add(time.Duration(i) * scheduler.Period)
		allocs = sched.AppendAllocate(allocs[:0], slot)
		for _, a := range allocs {
			marker := " "
			if a.SatID != prev && prev != 0 {
				marker = "*"
				changes++
			}
			prev = a.SatID
			fmt.Printf("%s  %-12d %5.1f  %5.1f  %v %s\n",
				a.SlotStart.Format("2006-01-02T15:04:05Z"), a.SatID, a.ElevationDeg, a.AzimuthDeg, a.Sunlit, marker)
			elevs = append(elevs, a.ElevationDeg)
		}
	}
	mean := 0.0
	for _, e := range elevs {
		mean += e
	}
	mean /= float64(len(elevs))
	fmt.Printf("\n%d reallocations over 20 slots; mean chosen elevation %.1f deg\n", changes, mean)
	fmt.Println("(the paper: reallocation every 15 s, strong preference for high elevation)")
}
