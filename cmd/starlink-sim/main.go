// Command starlink-sim runs the starlink-baseline scenario's oracle
// campaign through the campaign engine and writes every slot ×
// terminal record to stdout as JSONL: the terminal, the slot, the
// public available set, the scheduler's chosen satellite and, for an
// unserved slot, the skip reason. It is the stream whose sha256
// `repro dist` prints for the same scale, seed and slots.
//
// Usage:
//
//	starlink-sim [-scale medium] [-seed 7] [-slots 40] [-tle out.tle]
//	             [-telemetry-addr 127.0.0.1:0]
//
// With -tle the synthetic constellation's two-line element sets are
// also written in CelesTrak 3-line format. With -telemetry-addr the
// campaign's and scheduler's metrics are served on /metrics
// (Prometheus text) and /debug/vars, and the process keeps serving
// after the simulation completes until interrupted — so a scraper or
// smoke test can read the final counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/traceio"
)

func main() {
	var (
		scale   = flag.String("scale", "medium", "constellation density of the starlink-baseline preset: small|medium|full")
		seed    = flag.Int64("seed", 7, "deterministic seed")
		slots   = flag.Int("slots", 40, "slots to simulate (15 s each)")
		tlePath = flag.String("tle", "", "also write the constellation TLEs to this file")
		teleAdr = flag.String("telemetry-addr", "", "serve /metrics and /debug/vars on this address; keep serving after the run until interrupted")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *scale, *seed, *slots, *tlePath, *teleAdr); err != nil {
		fmt.Fprintln(os.Stderr, "starlink-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, scale string, seed int64, slots int, tlePath, teleAdr string) error {
	var reg *telemetry.Registry
	if teleAdr != "" {
		reg = telemetry.NewRegistry()
	}
	spec, err := scenario.Starlink(scale, seed)
	if err != nil {
		return err
	}
	spec.Campaign.Slots = slots
	built, err := spec.Build(scenario.BuildOptions{Telemetry: reg})
	if err != nil {
		return err
	}
	env := built.Env
	var srv *telemetry.Server
	if teleAdr != "" {
		if srv, err = telemetry.StartServer(ctx, teleAdr, reg, env.Trace()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "starlink-sim: telemetry on http://%s/metrics\n", srv.Addr())
	}
	if tlePath != "" {
		if err := os.WriteFile(tlePath, []byte(env.Cons.ExportTLEs()), 0o644); err != nil {
			return fmt.Errorf("write TLEs: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d element sets to %s\n", env.Cons.Len(), tlePath)
	}

	// The engine streams the records slot by slot: the run is O(1) in
	// memory however long the simulation.
	enc := traceio.NewEncoder[core.SlotRecord](os.Stdout)
	if _, err := core.RunCampaignStream(ctx, built.CampaignConfig(), func(rec core.SlotRecord) error {
		return enc.Encode(&rec)
	}); err != nil {
		return err
	}
	// Flush, not Close: Close also syncs, which a pipe refuses.
	if err := enc.Flush(); err != nil {
		return err
	}
	if srv != nil {
		// Hold the endpoint open so the final counters stay scrapeable;
		// Ctrl-C (or SIGTERM) tears the server down gracefully.
		fmt.Fprintln(os.Stderr, "starlink-sim: run complete, serving telemetry until interrupted")
		<-ctx.Done()
		srv.Wait()
	}
	return nil
}
