// Identify: the paper's §4 methodology end to end. A terminal's dish
// paints the serving satellite's sky-track into its obstruction map
// each 15-second slot; we XOR consecutive snapshots to isolate the
// newest trajectory, convert its pixels to (elevation, azimuth), and
// match against SGP4-propagated candidate tracks with dynamic time
// warping. Ground truth from the simulator scores the result.
//
//	go run ./examples/identify
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obstruction"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/skyplot"
)

func main() {
	spec, err := scenario.Starlink("small", 11)
	if err != nil {
		log.Fatal(err)
	}
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	env := built.Env
	iowa := env.Terminals[0]
	fmt.Printf("terminal: %s; %d satellites in the constellation\n\n", iowa.Name, env.Cons.Len())

	// Walk 12 slots by hand so every pipeline stage is visible.
	dish := obstruction.New()
	start := env.Start()
	correct, attempted := 0, 0
	var allocs []scheduler.Allocation // reused slot to slot
	for i := 0; i < 12; i++ {
		slot := start.Add(time.Duration(i) * scheduler.Period)

		// Ground truth (what the real network knows, and we don't).
		var alloc scheduler.Allocation
		allocs = env.Sched.AppendAllocate(allocs[:0], slot)
		for _, a := range allocs {
			if a.Terminal == iowa.Name {
				alloc = a
			}
		}
		if alloc.SatID == 0 {
			fmt.Printf("slot %2d: no satellite serving, skipping\n", i)
			continue
		}

		// The dish paints the serving track (firmware behaviour).
		prev := dish.Clone()
		if err := env.Ident.PaintServingTrack(dish, alloc.SatID, iowa.VantagePoint, slot); err != nil {
			log.Fatal(err)
		}

		// §4: XOR + pixel decode + DTW match, using only public data,
		// against the slot's snapshot of the public TLEs (the one the
		// scheduler just propagated, shared through the cache).
		snap := env.Snaps.Acquire(env.Cons, slot)
		ident, err := env.Ident.IdentifyFromMaps(prev, dish, iowa.VantagePoint, slot, snap, nil)
		snap.Release()
		if err != nil {
			fmt.Printf("slot %2d: identification failed: %v\n", i, err)
			continue
		}
		attempted++
		ok := "WRONG"
		if ident.SatID == alloc.SatID {
			ok = "correct"
			correct++
		}
		fmt.Printf("slot %2d: identified %d (truth %d) %s  dtw=%.2f margin=%.2f track=%dpx\n",
			i, ident.SatID, alloc.SatID, ok, ident.Distance, ident.Margin, ident.TrackLen)
	}
	if attempted > 0 {
		fmt.Printf("\nper-slot accuracy: %d/%d\n", correct, attempted)
	}

	// Render the manual-validation view the paper's pilot study used:
	// the isolated trajectory in white over every candidate's track,
	// with the DTW winner highlighted.
	slot := start.Add(11 * scheduler.Period)
	var lastAlloc scheduler.Allocation
	for _, a := range env.Sched.AppendAllocate(allocs[:0], slot) {
		if a.Terminal == iowa.Name {
			lastAlloc = a
		}
	}
	if lastAlloc.SatID != 0 {
		observed, err := env.Ident.ServingTrack(lastAlloc.SatID, iowa.VantagePoint, slot)
		if err != nil {
			log.Fatal(err)
		}
		snap := env.Snaps.Acquire(env.Cons, slot)
		cands, dropped := env.Ident.CandidatePolarTracks(snap, iowa.VantagePoint, slot)
		snap.Release()
		if dropped > 0 {
			fmt.Printf("%d in-view candidates left out: propagation failed mid-slot\n", dropped)
		}
		plot, err := skyplot.Validation(400, observed, cands, lastAlloc.SatID)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create("validation.png")
		if err != nil {
			log.Fatal(err)
		}
		if err := plot.EncodePNG(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Println("wrote validation.png (observed track in white, DTW winner in green)")
	}

	// The packaged campaign runs the same loop at scale, with 10-minute
	// resets, and reports the §4 validation numbers.
	cfg := env.CampaignConfig(50, false)
	cfg.Start = start.Add(time.Hour)
	res, err := core.RunCampaignStream(context.Background(), cfg, func(core.SlotRecord) error { return nil })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign over 50 slots x 4 terminals: accuracy %.1f%% on %d identifications (paper pilot: >99%%)\n",
		res.Accuracy()*100, res.Attempted)
}
