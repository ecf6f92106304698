package main

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/obstruction"
	"repro/internal/scenario"
)

// TestCollectorIdentifiesLikeEngine plays the paper's §4 collector
// against dishd's firmware: the dish is served on loopback, the
// firmware paints it slot by slot, and after each slot the collector
// polls the map over dishrpc and identifies the satellite from the XOR
// of consecutive maps, resetting the dish every 40 slots as the engine
// does. Every identification must equal the non-oracle engine's record
// for the same slot and terminal: the same satellite, the same margin
// bits, and a failure wherever the engine skipped.
func TestCollectorIdentifiesLikeEngine(t *testing.T) {
	const (
		slots      = 45
		resetEvery = 40 // the engine's default cadence, which the preset keeps
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	spec, err := scenario.Starlink("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	built, cfg, vp, err := terminalCampaign(spec, "Iowa", nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Slots = slots

	// The engine's own identifications, from a fresh build of the same
	// spec run non-oracle over the same shard.
	mspec, err := scenario.Starlink("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	mspec.Campaign.Slots = slots
	mspec.Campaign.Oracle = false
	mbuilt, err := mspec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mbuilt.CampaignConfig()
	mcfg.Shard = cfg.Shard
	var want []core.SlotRecord
	if _, err := core.RunCampaignStream(ctx, mcfg, func(rec core.SlotRecord) error {
		rec.Available = nil // the engine reuses the array
		want = append(want, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != slots {
		t.Fatalf("engine emitted %d records, want %d", len(want), slots)
	}

	dish := dishrpc.NewDish("dish-Iowa", nil)
	srv, err := dishrpc.NewServer("127.0.0.1:0", dish)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ctx)
	client, err := dishrpc.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A clock this fast never makes the firmware wait.
	clock := simClock{wallStart: time.Now(), simStart: cfg.Start, speedup: 1e12}
	paint := firmware(ctx, clock, dish, cfg.Identifier, vp)
	prev := obstruction.New()
	slot, identified, afterReset := 0, 0, 0
	if _, err := core.RunCampaignStream(ctx, cfg, func(rec core.SlotRecord) error {
		w := want[slot]
		if !rec.SlotStart.Equal(w.SlotStart) || rec.Terminal != w.Terminal || rec.TrueID != w.TrueID {
			t.Fatalf("slot %d: firmware record %s %v sat %d, engine %s %v sat %d",
				slot, rec.Terminal, rec.SlotStart, rec.TrueID, w.Terminal, w.SlotStart, w.TrueID)
		}
		if slot > 0 && slot%resetEvery == 0 {
			if err := client.Reset(); err != nil {
				return err
			}
			prev = obstruction.New()
		}
		if err := paint(rec); err != nil {
			return err
		}
		cur, err := client.ObstructionMap()
		if err != nil {
			return err
		}
		snap := cfg.Snapshots.Acquire(built.Env.Cons, rec.SlotStart)
		got, err := cfg.Identifier.IdentifyFromMaps(prev, cur, vp, rec.SlotStart, snap, nil)
		snap.Release()
		switch {
		case err != nil:
			if w.SkipReason == "" || w.IdentifiedID != 0 {
				t.Errorf("slot %d: collector failed (%v), engine identified %d", slot, err, w.IdentifiedID)
			}
		case got.SatID != w.IdentifiedID || math.Float64bits(got.Margin) != math.Float64bits(w.Margin):
			t.Errorf("slot %d: collector identified %d (margin %v), engine %d (margin %v, skip %q)",
				slot, got.SatID, got.Margin, w.IdentifiedID, w.Margin, w.SkipReason)
		default:
			identified++
			if slot >= resetEvery {
				afterReset++
			}
		}
		prev = cur
		slot++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if slot != slots || afterReset == 0 || identified == afterReset {
		t.Fatalf("%d slots, %d identified, %d after the reset: the window must cross a reset with identifications on both sides",
			slot, identified, afterReset)
	}
	t.Logf("%d of %d slots identified over dishrpc, %d after the reset", identified, slots, afterReset)
}
