// Command dishd runs a simulated Starlink user terminal daemon: it
// runs the campaign engine's oracle campaign for one terminal of the
// starlink-baseline scenario in real (or accelerated) time, paints
// the serving satellite's sky-track into the dish obstruction map each
// 15-second slot, and serves the map and status over the dishrpc
// protocol — the stand-in for a real dish's gRPC API.
//
// Usage:
//
//	dishd [-listen 127.0.0.1:9200] [-terminal Iowa] [-scale small]
//	      [-seed 7] [-speedup 60] [-telemetry-addr 127.0.0.1:0]
//
// With -speedup N, N simulated seconds elapse per wall second, so a
// full 10-minute reset cycle can be observed in ten seconds. Like a
// real dish, dishd never clears its own map: a collector resets it
// over the reset RPC, as the paper's did every 10 minutes. With
// -telemetry-addr the daemon also serves campaign and scheduler
// metrics on /metrics and /debug/vars for the lifetime of the process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
)

// campaignSlots bounds dishd's campaign far beyond any run (about 47
// simulated years); cancellation ends it.
const campaignSlots = 100_000_000

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
	built, cfg, vp, err := terminalCampaign(spec, terminal, reg)
	if err != nil {
		return err
	}
	clock := simClock{wallStart: time.Now(), simStart: cfg.Start, speedup: speedup}
	dish := dishrpc.NewDish("dish-"+terminal, clock.now)
	srv, err := dishrpc.NewServer(listen, dish)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dishd: %s terminal on %s, %d satellites, sim speedup %gx\n",
		terminal, srv.Addr(), built.Env.Cons.Len(), speedup)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if teleAdr != "" {
		tsrv, err := telemetry.StartServer(ctx, teleAdr, reg, built.Env.Trace())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "dishd: telemetry on http://%s/metrics\n", tsrv.Addr())
	}

	// The engine steps the scheduler; its emit is the firmware. Either
	// side ending stops the other.
	engine := make(chan error, 1)
	go func() {
		_, err := core.RunCampaignStream(ctx, cfg, firmware(ctx, clock, dish, cfg.Identifier, vp))
		engine <- err
		stop()
	}()
	serveErr := srv.Serve(ctx)
	stop()
	if err := <-engine; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	if serveErr != nil && !errors.Is(serveErr, context.Canceled) {
		return serveErr
	}
	fmt.Fprintln(os.Stderr, "dishd: shutting down")
	return nil
}

// terminalCampaign lowers spec to dishd's campaign: the oracle
// campaign of campaignSlots slots, sharded to the named terminal. The
// scheduler still allocates the whole fleet every slot. It also
// returns the built scenario and the terminal's vantage point.
func terminalCampaign(spec *scenario.Spec, terminal string, reg *telemetry.Registry) (*scenario.Built, core.CampaignConfig, geo.VantagePoint, error) {
	spec.Campaign.Slots = campaignSlots
	spec.Campaign.Oracle = true
	built, err := spec.Build(scenario.BuildOptions{Telemetry: reg})
	if err != nil {
		return nil, core.CampaignConfig{}, geo.VantagePoint{}, err
	}
	cfg := built.CampaignConfig()
	terms := cfg.Scheduler.Terminals()
	i := slices.IndexFunc(terms, func(t scheduler.Terminal) bool { return t.Name == terminal })
	if i < 0 {
		return nil, core.CampaignConfig{}, geo.VantagePoint{}, fmt.Errorf("unknown terminal %q", terminal)
	}
	cfg.Shard = core.ShardRange{Lo: i, Hi: i + 1}
	return built, cfg, terms[i].VantagePoint, nil
}

// simClock is the simulated clock: simStart at wallStart, advancing
// speedup simulated seconds per wall second.
type simClock struct {
	wallStart, simStart time.Time
	speedup             float64
}

func (c simClock) now() time.Time {
	return c.simStart.Add(time.Duration(float64(time.Since(c.wallStart)) * c.speedup))
}

// wait blocks until the simulated clock reaches t or ctx ends.
func (c simClock) wait(ctx context.Context, t time.Time) error {
	timer := time.NewTimer(time.Duration(float64(t.Sub(c.simStart))/c.speedup) - time.Since(c.wallStart))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// firmware is the dish firmware as the campaign engine's emit
// callback: for each record it waits until the simulated clock reaches
// the record's slot, then paints the allocated satellite's sky-track
// into the dish map. It never resets the map.
func firmware(ctx context.Context, clock simClock, dish *dishrpc.Dish, ident *core.Identifier, vp geo.VantagePoint) core.EmitFunc {
	return func(rec core.SlotRecord) error {
		if err := clock.wait(ctx, rec.SlotStart); err != nil {
			return err
		}
		if rec.TrueID == 0 {
			return nil // no satellite allocated: nothing to paint
		}
		pts, err := ident.ServingTrack(rec.TrueID, vp, rec.SlotStart)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dishd: track: %v\n", err)
			return nil
		}
		dish.PaintTrack(pts)
		return nil
	}
}
