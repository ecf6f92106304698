package scheduler

import (
	"math"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/sgp4"
	"repro/internal/units"
)

// fixedEph propagates to one fixed TEME position at every time —
// synthetic geometry for deterministic-ordering tests.
type fixedEph struct {
	pos   units.Vec3
	epoch time.Time
}

func (f fixedEph) Epoch() time.Time { return f.epoch }
func (f fixedEph) Propagate(float64) (sgp4.State, error) {
	return sgp4.State{Pos: f.pos}, nil
}
func (f fixedEph) PropagateAt(time.Time) (sgp4.State, error) {
	return sgp4.State{Pos: f.pos}, nil
}

// TestAllocateScoreTieBreak is the golden test for the explicit score
// tie-break: satellites with identical scores (identical geometry,
// zero noise) must resolve to the lowest catalog number, regardless of
// the order the constellation lists them in.
func TestAllocateScoreTieBreak(t *testing.T) {
	epoch := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	slot := EpochStart(epoch.Add(time.Hour))
	pos := units.Vec3{X: units.EarthRadiusKm + 550}

	// Both orderings must produce the same winner.
	for _, ids := range [][]int{{44000, 44700}, {44700, 44000}} {
		var sats []*constellation.Satellite
		for _, id := range ids {
			sats = append(sats, &constellation.Satellite{
				ID:         id,
				Name:       "TIE",
				Launch:     epoch,
				Propagator: fixedEph{pos: pos, epoch: epoch},
			})
		}
		cons := &constellation.Constellation{Sats: sats, Epoch: epoch}

		// Place the terminal at the shared sub-satellite point so both
		// satellites sit at the zenith: identical elevation, identical
		// score terms. Zero noise, no GSO/battery/bent-pipe terms.
		ecef := astro.FrameAt(slot).ToECEF(pos)
		// pos lies in the equatorial plane, so the sub-satellite point has
		// latitude 0 and the longitude of ecef.
		sub := astro.Geodetic{LonDeg: units.Rad2Deg(math.Atan2(ecef.Y, ecef.X))}
		term := Terminal{VantagePoint: geo.VantagePoint{
			Name:     "tie-term",
			Location: astro.Geodetic{LatDeg: sub.LatDeg, LonDeg: sub.LonDeg},
		}}

		g, err := NewGlobal(Config{
			Constellation:    cons,
			Terminals:        []Terminal{term},
			Weights:          Weights{Elevation: 1}, // noise, load, charge weights zero
			GSOProtectionDeg: -1,
			DisableBattery:   true,
			GroundStations:   []astro.Geodetic{}, // non-nil empty: bent-pipe off
			Seed:             1,
		})
		if err != nil {
			t.Fatal(err)
		}
		allocs := g.Allocate(slot)
		if len(allocs) != 1 {
			t.Fatalf("got %d allocations, want 1", len(allocs))
		}
		if n := len(g.CandidatesAt(term, slot)); n != 2 {
			t.Fatalf("candidates = %d, want 2 (order %v)", n, ids)
		}
		if allocs[0].SatID != 44000 {
			t.Fatalf("tie broken to sat %d, want lowest ID 44000 (order %v)", allocs[0].SatID, ids)
		}
	}
}

// TestAllocateIndexedMatchesLinear pins the tentpole determinism
// contract at the scheduler layer: two identically seeded controllers,
// one using the spatial index and one the linear scan, must produce
// identical allocations slot after slot.
func TestAllocateIndexedMatchesLinear(t *testing.T) {
	build := func(disableIndex bool) *Global {
		g, err := NewGlobal(Config{
			Constellation: testConstellation(t),
			Terminals:     testTerminals(),
			Seed:          11,
			DisableIndex:  disableIndex,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	indexed := build(false)
	linear := build(true)
	start := time.Date(2023, 3, 1, 12, 0, 12, 0, time.UTC)
	for slot := 0; slot < 12; slot++ {
		at := start.Add(time.Duration(slot) * Period)
		a := indexed.Allocate(at)
		b := linear.Allocate(at)
		if len(a) != len(b) {
			t.Fatalf("slot %d: %d vs %d allocations", slot, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("slot %d terminal %s: indexed %+v != linear %+v", slot, a[i].Terminal, a[i], b[i])
			}
		}
	}
}
