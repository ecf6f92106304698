// Livetrace: real UDP probes through the simulated Starlink path. An
// irtt server on loopback injects the netsim delay model (terminal ->
// satellite -> ground station -> PoP, with 15-second reallocation and
// MAC frame bands) under every probe, and an irtt client measures it
// at the paper's 1 packet / 20 ms cadence — a miniature live Figure 2.
//
//	go run ./examples/livetrace
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/irtt"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/stats"
)

func main() {
	spec, err := scenario.Starlink("small", 33)
	if err != nil {
		log.Fatal(err)
	}
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	env := built.Env
	term := env.Terminals[0]
	path, err := netsim.NewPath(netsim.Config{
		Constellation: env.Cons,
		Scheduler:     env.Sched,
		Terminal:      term,
		Seed:          33,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Map wall time onto simulated time so a 12-second run crosses a
	// slot boundary.
	wallStart := time.Now()
	simStart := env.Start().Add(5 * time.Second)
	simAt := func(wall time.Time) time.Time { return simStart.Add(wall.Sub(wallStart)) }

	srv, err := irtt.NewServer("127.0.0.1:0", func(arrival time.Time) (time.Duration, bool) {
		s, err := path.Probe(simAt(arrival))
		if err != nil {
			return 0, true // outage: drop the probe
		}
		if s.Lost {
			return 0, true
		}
		return time.Duration(s.RTTms * float64(time.Millisecond)), false
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx)

	fmt.Printf("probing %s for 12 s at 1 packet / 20 ms (simulated %s terminal)...\n",
		srv.Addr(), term.Name)
	results, err := irtt.Run(ctx, srv.Addr().String(), irtt.ClientConfig{
		Interval: 20 * time.Millisecond,
		Count:    600,
		Timeout:  time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	sum := irtt.Summarize(results)
	fmt.Printf("sent %d, received %d (%.1f%% loss), rtt min/median/max = %v / %v / %v\n\n",
		sum.Sent, sum.Received, sum.LossRate*100, sum.MinRTT, sum.MedianRTT, sum.MaxRTT)

	// Group by simulated 15-second slot and show the regime shifts.
	bySlot := map[int64][]float64{}
	var order []int64
	for _, r := range results {
		if r.Lost {
			continue
		}
		slot := scheduler.SlotIndex(simAt(r.SendTime))
		if _, ok := bySlot[slot]; !ok {
			order = append(order, slot)
		}
		bySlot[slot] = append(bySlot[slot], float64(r.RTT)/float64(time.Millisecond))
	}
	fmt.Println("slot  probes  median_rtt_ms")
	for i, slot := range order {
		fmt.Printf("%4d  %6d  %6.1f\n", i, len(bySlot[slot]), stats.Median(bySlot[slot]))
	}
	if len(order) >= 2 {
		a, b := bySlot[order[0]], bySlot[order[1]]
		if len(a) >= 8 && len(b) >= 8 {
			mw, err := stats.MannWhitneyU(a, b)
			if err == nil {
				fmt.Printf("\nMann-Whitney U between the first two slots: p = %.2g (paper: p < .05)\n", mw.P)
			}
		}
	}
}
