//go:build !race

// The race detector allocates on its own account, so the counts below
// hold only without it.

package core

import (
	"context"
	"testing"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scheduler"
)

// TestWarmOracleSlotAllocs pins what one warm slot of the oracle
// engine allocates for the 4 study terminals: the slot's snapshot,
// its allocations, its index and the terminals' records all reuse
// buffers, recycled or kept from earlier slots. The engine runs
// paused in its emit, one slot per measured run. What is left is the
// snapshot cache's per-miss bookkeeping: the SharedSnapshot entry and
// its LRU list element.
func TestWarmOracleSlotAllocs(t *testing.T) {
	setupFixture(t)
	cache := constellation.NewSnapshotCache(0, nil)
	cache.SetSnapshotWorkers(1) // no snapshot fan-out goroutines
	var terms []scheduler.Terminal
	for _, vp := range geo.StudyVantagePoints() {
		terms = append(terms, scheduler.Terminal{VantagePoint: vp})
	}
	sched, err := scheduler.NewGlobal(scheduler.Config{Constellation: fixture.cons, Terminals: terms, Seed: 41, Snapshots: cache})
	if err != nil {
		t.Fatal(err)
	}
	const warm, runs = 12, 20
	cfg := campaignCfg(t, 41, 1, true)
	cfg.Scheduler, cfg.Snapshots, cfg.Slots = sched, cache, warm+runs+4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted, next := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunCampaignStream(ctx, cfg, func(rec SlotRecord) error {
			if rec.Terminal != terms[len(terms)-1].Name {
				return nil
			}
			select {
			case emitted <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			select {
			case <-next:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		done <- err
	}()
	for i := 0; i < warm; i++ {
		<-emitted
		if i < warm-1 {
			next <- struct{}{}
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		next <- struct{}{}
		<-emitted
	})
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("campaign ended with %v, want context.Canceled", err)
	}
	if allocs != 2 {
		t.Fatalf("a warm oracle slot for %d terminals allocates %v times, want 2", len(terms), allocs)
	}
}
