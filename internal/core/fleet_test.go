package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scheduler"
	"repro/internal/sgp4"
)

// fleetTerminals spreads n synthetic terminals over the inhabited
// latitudes on a golden-angle spiral — a fleet-scale stand-in for the
// paper's four study sites.
func fleetTerminals(n int) []scheduler.Terminal {
	const goldenDeg = 137.50776405003785
	terms := make([]scheduler.Terminal, 0, n)
	for i := 0; i < n; i++ {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		lat := -60 + 120*frac
		lon := math.Mod(float64(i)*goldenDeg, 360) - 180
		terms = append(terms, scheduler.Terminal{VantagePoint: geo.VantagePoint{
			Name:           fmt.Sprintf("fleet-%06d", i),
			Location:       astro.Geodetic{LatDeg: lat, LonDeg: lon},
			UTCOffsetHours: int(lon / 15),
		}})
	}
	return terms
}

// TestCampaignFleetIdentical is the tentpole acceptance check: an
// indexed campaign must emit byte-identical records to the unindexed
// one, at every worker count, with and without a shared snapshot
// cache. Records are compared as encoded JSONL bytes, not structs, so
// even a float formatting difference would fail.
func TestCampaignFleetIdentical(t *testing.T) {
	setupFixture(t)
	run := func(disableIndex bool, workers int, share bool) []byte {
		terms := fleetTerminals(40)
		var cache *constellation.SnapshotCache
		if share {
			cache = constellation.NewSnapshotCache(0, nil)
		}
		sched, err := scheduler.NewGlobal(scheduler.Config{
			Constellation: fixture.cons,
			Terminals:     terms,
			Seed:          123,
			DisableIndex:  disableIndex,
			Snapshots:     cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := CampaignConfig{
			Scheduler:    sched,
			Identifier:   fixture.ident,
			Start:        fixture.cons.Epoch.Add(3 * time.Hour),
			Slots:        8,
			Oracle:       true,
			Workers:      workers,
			DisableIndex: disableIndex,
			Snapshots:    cache,
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		stats, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
			return enc.Encode(rec)
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Records != cfg.Slots*len(terms) {
			t.Fatalf("emitted %d records, want %d", stats.Records, cfg.Slots*len(terms))
		}
		return buf.Bytes()
	}

	baseline := run(true, 1, false) // linear scan, serial: the reference
	cases := []struct {
		name         string
		disableIndex bool
		workers      int
		share        bool
	}{
		{"indexed serial", false, 1, false},
		{"indexed serial shared-cache", false, 1, true},
		{"indexed parallel-4", false, 4, false},
		{"indexed parallel-4 shared-cache", false, 4, true},
		{"linear parallel-4", true, 4, false},
	}
	for _, c := range cases {
		got := run(c.disableIndex, c.workers, c.share)
		if !bytes.Equal(got, baseline) {
			t.Fatalf("%s: records not byte-identical to the linear serial run (%d vs %d bytes)",
				c.name, len(got), len(baseline))
		}
	}
}

// brokenEph always fails, standing in for decayed elements.
type brokenEph struct{ epoch time.Time }

func (b brokenEph) Epoch() time.Time { return b.epoch }
func (b brokenEph) Propagate(float64) (sgp4.State, error) {
	return sgp4.State{}, errors.New("stale elements")
}
func (b brokenEph) PropagateAt(time.Time) (sgp4.State, error) {
	return sgp4.State{}, errors.New("stale elements")
}

// TestCampaignStatsPropagationSkips checks the bugfix for silently
// shrinking snapshots: a failing satellite must be counted in
// CampaignStats (once per slot) and in the constellation's per-sat
// accounting, at one and three workers.
func TestCampaignStatsPropagationSkips(t *testing.T) {
	for _, workers := range []int{1, 3} {
		cons, err := constellation.New(constellation.Config{
			Shells: []constellation.Shell{
				{Name: "mini", AltitudeKm: 550, InclinationDeg: 53, Planes: 8, SatsPerPlane: 8, PhasingF: 3},
			},
			Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		cons.Sats[5].Propagator = brokenEph{epoch: cons.Epoch}

		ident, err := NewIdentifier(cons)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.NewGlobal(scheduler.Config{
			Constellation: cons,
			Terminals:     fleetTerminals(6),
			Seed:          4,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := CampaignConfig{
			Scheduler:  sched,
			Identifier: ident,
			Start:      cons.Epoch.Add(time.Hour),
			Slots:      5,
			Oracle:     true,
			Workers:    workers,
		}
		stats, err := RunCampaignStream(context.Background(), cfg, func(SlotRecord) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if stats.PropagationSkips != cfg.Slots {
			t.Fatalf("workers=%d: PropagationSkips = %d, want %d (one per slot)",
				workers, stats.PropagationSkips, cfg.Slots)
		}
		total, bySat := cons.PropagationSkips()
		if total < int64(cfg.Slots) {
			t.Fatalf("workers=%d: constellation total = %d, want >= %d", workers, total, cfg.Slots)
		}
		if len(bySat) != 1 || bySat[cons.Sats[5].ID] != "stale elements" {
			t.Fatalf("workers=%d: bySat = %v, want the one broken satellite", workers, bySat)
		}
	}
}
