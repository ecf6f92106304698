package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/obstruction"
	"repro/internal/scheduler"
)

// campaignCfg builds a campaign over the shared fixture constellation
// with a fresh scheduler. The scheduler is stateful (hidden load walk,
// score-noise RNG), so byte-identical comparisons need one instance
// per run, seeded the same.
func campaignCfg(t *testing.T, seed int64, workers int, oracle bool) CampaignConfig {
	t.Helper()
	return CampaignConfig{
		Scheduler:  mustScheduler(t, fixture.cons, seed),
		Identifier: fixture.ident,
		Start:      fixture.cons.Epoch.Add(4 * time.Hour),
		Slots:      24,
		ResetEvery: 10,
		Oracle:     oracle,
		Workers:    workers,
	}
}

// TestParallelCampaignMatchesSerial is the determinism guarantee for
// the worker-pool engine: record order, record content, and the
// accuracy counters must match the serial run exactly, at several
// worker counts. Run under -race it also guards the engine's
// synchronization (shared snapshots, sharded dish state, merge).
func TestParallelCampaignMatchesSerial(t *testing.T) {
	setupFixture(t)
	for _, oracle := range []bool{true, false} {
		serial, err := runCampaign(context.Background(), campaignCfg(t, 99, 1, oracle))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 8} {
			par, err := runCampaign(context.Background(), campaignCfg(t, 99, workers, oracle))
			if err != nil {
				t.Fatal(err)
			}
			if par.Attempted != serial.Attempted || par.Correct != serial.Correct || par.Failed != serial.Failed {
				t.Errorf("oracle=%v workers=%d: counters (%d,%d,%d) != serial (%d,%d,%d)",
					oracle, workers, par.Attempted, par.Correct, par.Failed,
					serial.Attempted, serial.Correct, serial.Failed)
			}
			if len(par.Records) != len(serial.Records) {
				t.Fatalf("oracle=%v workers=%d: %d records != serial %d",
					oracle, workers, len(par.Records), len(serial.Records))
			}
			for i := range serial.Records {
				if !reflect.DeepEqual(par.Records[i], serial.Records[i]) {
					t.Fatalf("oracle=%v workers=%d: record %d differs:\nparallel: %+v\nserial:   %+v",
						oracle, workers, i, par.Records[i], serial.Records[i])
				}
			}
		}
	}
}

// TestCampaignCancellation checks ctx threading at one and four
// workers: a pre-canceled context aborts promptly with the context's
// error.
func TestCampaignCancellation(t *testing.T) {
	setupFixture(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := runCampaign(ctx, campaignCfg(t, 5, workers, true))
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Errorf("workers=%d: canceled run returned a result", workers)
		}
	}
}

// TestCampaignMidRunCancellation cancels while a four-worker campaign
// is in flight; the run must stop and report the cancellation.
func TestCampaignMidRunCancellation(t *testing.T) {
	setupFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := campaignCfg(t, 6, 4, false)
	cfg.Slots = 200
	done := make(chan error, 1)
	go func() {
		_, err := runCampaign(ctx, cfg)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not stop after cancel")
	}
}

// TestSlotStepZeroAlloc pins the measured (non-oracle) engine's warm
// path: once a worker's scratch and the record's Available array have
// grown, one identified (slot, terminal) step — available set, paint,
// XOR, track, candidate sampling and matching — allocates nothing.
func TestSlotStepZeroAlloc(t *testing.T) {
	setupFixture(t)
	cfg := campaignCfg(t, 41, 1, false)
	terms, _, _, err := prepareCampaign(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	term := terms[0]
	var wk campaignWorker
	dish := obstruction.New()
	var rec SlotRecord
	start := scheduler.EpochStart(cfg.Start)
	for slot := 0; slot < cfg.Slots; slot++ {
		slotStart := start.Add(time.Duration(slot) * scheduler.Period)
		snap := cfg.Snapshots.Acquire(cfg.Identifier.cons, slotStart)
		alloc := allocFor(cfg.Scheduler.Allocate(slotStart), 0, term.Name)
		before := *dish
		wk.runSlotTerminal(&cfg, term, dish, &rec, slotStart, snap, alloc)
		if slot == 0 || rec.SkipReason != "" || rec.IdentifiedID == 0 {
			snap.Release()
			continue
		}
		want := keep(rec)
		step := func() {
			*dish = before
			wk.runSlotTerminal(&cfg, term, dish, &rec, slotStart, snap, alloc)
		}
		allocs := testing.AllocsPerRun(50, step)
		snap.Release()
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("slot %d: a repeated step gave a different record", slot)
		}
		if allocs != 0 {
			t.Errorf("slot %d: identified slot step = %v allocs/op, want 0", slot, allocs)
		}
		return
	}
	t.Fatal("no identified slot in the campaign")
}
