package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obstruction"
	"repro/internal/scheduler"
)

// MapFetcher is the minimal dish-API surface a live capture needs.
// *dishrpc.Client implements it, so a Live capture pointed at a dishrpc
// endpoint runs the paper's methodology over the wire; tests plug in
// simulated dishes.
type MapFetcher interface {
	ObstructionMap() (*obstruction.Map, error)
	Reset() error
}

// Live captures slots from a running dish: at each slot boundary it
// fetches the obstruction map, XORs it against the previous snapshot,
// identifies the serving satellite with the §4 DTW matcher, and emits
// one record per slot. TrueID is always 0 — a real dish exposes no
// ground truth — so live records reach the same consumers as campaign
// records, with the identification standing in for the oracle.
type Live struct {
	Dish  MapFetcher
	Ident *Identifier
	// Terminal is the capture vantage point (name, location, UTC
	// offset).
	Terminal scheduler.Terminal
	// Start is aligned down to the allocation grid
	// (scheduler.EpochStart).
	Start time.Time
	Slots int
	// ResetEvery is the dish reset cadence in slots; default 40 (= 10
	// minutes), the campaign engine's cadence. The dish is also reset at
	// capture start so the first XOR diff is clean.
	ResetEvery int
	// WaitSlot blocks until t, the moment a slot's track is fully
	// painted, before the map is fetched. Nil waits on the wall clock —
	// which collapses to no wait when t is already past, so captures
	// against a simulated dish replay at full speed.
	WaitSlot func(ctx context.Context, t time.Time) error
}

// Stream runs the capture, pushing each slot's record to emit in slot
// order. It stops at the first emit error or on ctx cancellation and
// returns that error.
func (l *Live) Stream(ctx context.Context, emit EmitFunc) error {
	if l.Dish == nil {
		return fmt.Errorf("core: live capture needs a dish")
	}
	if l.Ident == nil {
		return fmt.Errorf("core: live capture needs an identifier")
	}
	if l.Terminal.Name == "" {
		return fmt.Errorf("core: live capture terminal has no name")
	}
	if l.Slots <= 0 {
		return fmt.Errorf("core: live capture needs slots > 0, got %d", l.Slots)
	}
	resetEvery := l.ResetEvery
	if resetEvery == 0 {
		resetEvery = 40
	}
	wait := l.WaitSlot
	if wait == nil {
		wait = waitUntil
	}

	vp := l.Terminal.VantagePoint
	start := scheduler.EpochStart(l.Start)
	prev := obstruction.New()
	for slot := 0; slot < l.Slots; slot++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		slotStart := start.Add(time.Duration(slot) * scheduler.Period)
		if resetEvery > 0 && slot%resetEvery == 0 {
			if err := l.Dish.Reset(); err != nil {
				return fmt.Errorf("core: reset dish at slot %d: %w", slot, err)
			}
			prev = obstruction.New()
		}
		if err := wait(ctx, slotStart.Add(scheduler.Period)); err != nil {
			return err
		}
		cur, err := l.Dish.ObstructionMap()
		if err != nil {
			return fmt.Errorf("core: fetch map at slot %d: %w", slot, err)
		}

		snap := l.Ident.Snapshot(slotStart)
		rec := SlotRecord{
			Observation: Observation{
				Terminal:  vp.Name,
				SlotStart: slotStart,
				LocalHour: LocalHour(vp, slotStart),
				Available: AvailableSet(snap, vp, slotStart, l.Ident.MinElevationDeg),
				ChosenIdx: -1,
			},
		}
		ident, err := l.Ident.IdentifyFromMaps(prev, cur, vp, slotStart, snap, nil)
		if err != nil {
			rec.SkipReason = err.Error()
		} else {
			rec.IdentifiedID = ident.SatID
			rec.Margin = ident.Margin
			rec.ChosenIdx = indexOf(rec.Available, ident.SatID)
			if rec.ChosenIdx < 0 {
				rec.SkipReason = "identified satellite not in public available set"
			}
		}
		prev = cur
		if err := emit(rec); err != nil {
			return err
		}
	}
	return nil
}

// waitUntil sleeps until t or ctx cancellation — the default live
// pacing. Times already past return immediately.
func waitUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
