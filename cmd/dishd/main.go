// Command dishd runs a simulated Starlink user terminal daemon: it
// drives the constellation + global scheduler in real (or accelerated)
// time, paints the serving satellite's sky-track into the dish
// obstruction map each 15-second slot, and serves the map and status
// over the dishrpc protocol — the stand-in for a real dish's gRPC API.
//
// Usage:
//
//	dishd [-listen 127.0.0.1:9200] [-terminal Iowa] [-scale small]
//	      [-seed 7] [-speedup 60] [-telemetry-addr 127.0.0.1:0]
//
// With -speedup N, N simulated seconds elapse per wall second, so a
// full 10-minute reset cycle can be observed in ten seconds. With
// -telemetry-addr the daemon also serves scheduler metrics on
// /metrics and /debug/vars for the lifetime of the process.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dishrpc"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:9200", "dishrpc listen address")
		terminal = flag.String("terminal", "Iowa", "terminal to simulate")
		scale    = flag.String("scale", "small", "constellation density of the starlink-baseline preset: small|medium|full")
		seed     = flag.Int64("seed", 7, "deterministic seed")
		speedup  = flag.Float64("speedup", 60, "simulated seconds per wall second")
		teleAdr  = flag.String("telemetry-addr", "", "serve /metrics and /debug/vars on this address")
	)
	flag.Parse()
	if err := run(*listen, *terminal, *scale, *seed, *speedup, *teleAdr); err != nil {
		fmt.Fprintln(os.Stderr, "dishd:", err)
		os.Exit(1)
	}
}

func run(listen, terminal, scale string, seed int64, speedup float64, teleAdr string) error {
	if speedup <= 0 {
		return fmt.Errorf("speedup must be positive, got %v", speedup)
	}
	var reg *telemetry.Registry
	if teleAdr != "" {
		reg = telemetry.NewRegistry()
	}
	spec, err := scenario.Starlink(scale, seed)
	if err != nil {
		return err
	}
	built, err := spec.Build(scenario.BuildOptions{Telemetry: reg})
	if err != nil {
		return err
	}
	env := built.Env
	var term scheduler.Terminal
	found := false
	for _, t := range env.Terminals {
		if t.Name == terminal {
			term = t
			found = true
		}
	}
	if !found {
		return fmt.Errorf("unknown terminal %q", terminal)
	}

	// Simulated clock: starts at the campaign start, advances at
	// speedup x wall time.
	wallStart := time.Now()
	simStart := env.Start()
	var simNanos atomic.Int64
	simNanos.Store(simStart.UnixNano())
	now := func() time.Time { return time.Unix(0, simNanos.Load()) }

	dish := dishrpc.NewDish("dish-"+terminal, now)
	srv, err := dishrpc.NewServer(listen, dish)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dishd: %s terminal on %s, %d satellites, sim speedup %gx\n",
		terminal, srv.Addr(), env.Cons.Len(), speedup)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if teleAdr != "" {
		tsrv, err := telemetry.StartServer(ctx, teleAdr, reg, env.Trace())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dishd: telemetry on http://%s/metrics\n", tsrv.Addr())
	}

	// Firmware loop: every simulated slot, paint the serving track.
	go func() {
		slot := simStart
		for ctx.Err() == nil {
			simNow := simStart.Add(time.Duration(float64(time.Since(wallStart)) * speedup))
			simNanos.Store(simNow.UnixNano())
			for !slot.After(simNow) {
				for _, a := range env.Sched.Allocate(slot) {
					if a.Terminal != terminal || a.SatID == 0 {
						continue
					}
					pts, err := env.Ident.ServingTrack(a.SatID, term.VantagePoint, slot)
					if err != nil {
						fmt.Fprintf(os.Stderr, "dishd: track: %v\n", err)
						continue
					}
					dish.PaintTrack(pts)
				}
				slot = slot.Add(scheduler.Period)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	err = srv.Serve(ctx)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "dishd: shutting down")
		return nil
	}
	return err
}
