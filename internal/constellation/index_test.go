package constellation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/units"
)

// randomSnapshot builds a synthetic snapshot of n satellites at
// uniformly random geocentric directions and LEO altitudes — harsher
// than a Walker shell because it exercises every latitude band
// including directly over the poles.
func randomSnapshot(rng *rand.Rand, n int) []SatState {
	snap := make([]SatState, 0, n)
	for i := 0; i < n; i++ {
		// Uniform direction on the sphere.
		z := rng.Float64()*2 - 1
		theta := rng.Float64() * 2 * math.Pi
		r := units.EarthRadiusKm + 400 + rng.Float64()*800
		xy := math.Sqrt(1 - z*z)
		snap = append(snap, SatState{
			Sat: &Satellite{ID: 1000 + i, pos: i},
			ECEF: units.Vec3{
				X: r * xy * math.Cos(theta),
				Y: r * xy * math.Sin(theta),
				Z: r * z,
			},
			Sunlit: rng.Intn(2) == 0,
		})
	}
	return snap
}

// TestIndexMatchesLinearScanProperty is the equivalence property test:
// over randomized satellite geometries and observers — including the
// poles and the antimeridian, the classic grid-wraparound traps — the
// index must return exactly what the linear scan returns: same set,
// same order, same floats.
func TestIndexMatchesLinearScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	masks := []float64{1, 5, 25, 40} // 1° exercises the degenerate-cap fallback
	for trial := 0; trial < 25; trial++ {
		snap := randomSnapshot(rng, 200+rng.Intn(1800))
		ix := NewSnapshotIndex(snap)

		observers := []astro.Geodetic{
			{LatDeg: rng.Float64()*180 - 90, LonDeg: rng.Float64()*360 - 180},
			{LatDeg: 90},                  // north pole
			{LatDeg: -90},                 // south pole
			{LatDeg: 89.9, LonDeg: 45},    // inside every cap's pole case
			{LatDeg: 0, LonDeg: 180},      // antimeridian
			{LatDeg: 0, LonDeg: -180},     // antimeridian, negative form
			{LatDeg: 51.2, LonDeg: 179.9}, // cap straddles the wrap
			{LatDeg: -33.7, LonDeg: -179.95},
			{LatDeg: rng.Float64()*20 + 60, LonDeg: rng.Float64()*360 - 180, AltKm: rng.Float64() * 3},
		}
		for _, obs := range observers {
			for _, mask := range masks {
				want := ObserveFrom(obs, snap, mask)
				got := ix.ObserveFrom(obs, mask)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d obs (%.2f, %.2f) mask %v: index returned %d sats, linear %d — first divergence %s",
						trial, obs.LatDeg, obs.LonDeg, mask, len(got), len(want), firstDivergence(got, want))
				}
			}
		}
	}
}

// firstDivergence renders where two visible lists first differ, for
// failure messages.
func firstDivergence(got, want []Visible) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i].Sat.ID != want[i].Sat.ID || got[i].Look != want[i].Look {
			return fmt.Sprintf("at rank %d: got sat %d, want sat %d", i, got[i].Sat.ID, want[i].Sat.ID)
		}
	}
	return "lengths differ"
}

// TestIndexMatchesLinearScanWalker checks the equivalence on a real
// Walker-delta constellation snapshot — the geometry campaigns run on,
// with its equal-elevation symmetries.
func TestIndexMatchesLinearScanWalker(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := fullSnapshot(c, c.Epoch.Add(30*time.Minute))
	ix := NewSnapshotIndex(snap)
	observers := []astro.Geodetic{
		{LatDeg: 47.6, LonDeg: -122.3},
		{LatDeg: 0, LonDeg: 0},
		{LatDeg: -53, LonDeg: 179.99},
		{LatDeg: 90},
		{LatDeg: -90},
	}
	for _, obs := range observers {
		for _, mask := range []float64{5, 25} {
			want := ObserveFrom(obs, snap, mask)
			got := ix.ObserveFrom(obs, mask)
			if len(want)+len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("obs (%.1f, %.1f) mask %v: index and linear scan disagree (%d vs %d sats)",
					obs.LatDeg, obs.LonDeg, mask, len(got), len(want))
			}
		}
	}
}

// TestAppendObserveFromPreservesPrefix checks that the scratch-reuse
// entry point sorts only its own suffix.
func TestAppendObserveFromPreservesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	snap := randomSnapshot(rng, 500)
	ix := NewSnapshotIndex(snap)
	sentinel := Visible{Sat: &Satellite{ID: -1}}
	out := ix.AppendObserveFrom([]Visible{sentinel}, astro.Geodetic{LatDeg: 10, LonDeg: 10}, 25)
	if out[0].Sat.ID != -1 {
		t.Fatalf("prefix clobbered: out[0].Sat.ID = %d", out[0].Sat.ID)
	}
	want := ObserveFrom(astro.Geodetic{LatDeg: 10, LonDeg: 10}, snap, 25)
	if !reflect.DeepEqual(out[1:], want) {
		t.Fatalf("suffix differs from linear scan")
	}
}

// TestObserveFromTieBreak is the regression test for the non-stable
// sort bugfix: equal-elevation satellites must come out in ascending
// ID order no matter the snapshot order.
func TestObserveFromTieBreak(t *testing.T) {
	pos := units.Vec3{X: units.EarthRadiusKm + 550}
	// Three satellites at the identical position — elevation ties by
	// construction — listed in descending ID order.
	snap := []SatState{
		{Sat: &Satellite{ID: 30}, ECEF: pos},
		{Sat: &Satellite{ID: 20}, ECEF: pos},
		{Sat: &Satellite{ID: 10}, ECEF: pos},
	}
	obs := astro.Geodetic{LatDeg: 0, LonDeg: 0}
	for _, q := range [][]Visible{
		ObserveFrom(obs, snap, 25),
		NewSnapshotIndex(snap).ObserveFrom(obs, 25),
	} {
		if len(q) != 3 {
			t.Fatalf("visible = %d sats, want 3", len(q))
		}
		for i, wantID := range []int{10, 20, 30} {
			if q[i].Sat.ID != wantID {
				t.Fatalf("rank %d: sat %d, want %d (tie-break by ID broken)", i, q[i].Sat.ID, wantID)
			}
		}
	}
}

// TestIndexCellGeometry sanity-checks the grid construction: cells
// derive from the 25°-mask footprint of the highest shell and every
// satellite lands in exactly one cell.
func TestIndexCellGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	snap := randomSnapshot(rng, 300)
	ix := NewSnapshotIndex(snap)
	latN, lonN := ix.Cells()
	if latN < 6 || lonN < 12 {
		t.Fatalf("grid %dx%d implausibly coarse", latN, lonN)
	}
	checkCells(t, ix, snap)
	if ix.Len() != len(snap) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(snap))
	}
}

// checkCells checks the index's CSR layout over snap: one offset per
// cell plus one, non-decreasing from 0 to len(snap), every satellite
// listed exactly once, in the cell its position falls in, and each
// cell in snapshot order.
func checkCells(t *testing.T, ix *SnapshotIndex, snap []SatState) {
	t.Helper()
	latN, lonN := ix.Cells()
	if len(ix.start) != latN*lonN+1 || ix.start[0] != 0 || int(ix.start[latN*lonN]) != len(snap) {
		t.Fatalf("%d offsets from %d to %d, want %d from 0 to %d", len(ix.start), ix.start[0], ix.start[len(ix.start)-1], latN*lonN+1, len(snap))
	}
	seen := make([]bool, len(snap))
	for c := 0; c < latN*lonN; c++ {
		members := ix.idx[ix.start[c]:ix.start[c+1]]
		for k, i := range members {
			if seen[i] {
				t.Fatalf("satellite %d listed twice", i)
			}
			seen[i] = true
			if got := ix.cellOf(snap[i].ECEF); got != c {
				t.Fatalf("satellite %d listed in cell %d, falls in %d", i, c, got)
			}
			if k > 0 && members[k-1] >= i {
				t.Fatalf("cell %d lists %d after %d: not snapshot order", c, i, members[k-1])
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("satellite %d in no cell", i)
		}
	}
}

// TestIndexOneCell: when every satellite falls in one cell, that
// cell lists them all in snapshot order, every other cell is empty,
// and queries match the linear scan.
func TestIndexOneCell(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var snap []SatState
	for i := 0; i < 40; i++ {
		// Within a fraction of a degree of (10°N, 20°E), at LEO radii.
		lat, lon := units.Deg2Rad(10+rng.Float64()*0.5), units.Deg2Rad(20+rng.Float64()*0.5)
		r := units.EarthRadiusKm + 500 + rng.Float64()*100
		snap = append(snap, SatState{
			Sat: &Satellite{ID: 500 - i, pos: i},
			ECEF: units.Vec3{
				X: r * math.Cos(lat) * math.Cos(lon),
				Y: r * math.Cos(lat) * math.Sin(lon),
				Z: r * math.Sin(lat),
			},
		})
	}
	ix := NewSnapshotIndex(snap)
	checkCells(t, ix, snap)
	c := ix.cellOf(snap[0].ECEF)
	if n := ix.start[c+1] - ix.start[c]; int(n) != len(snap) {
		t.Fatalf("cell %d holds %d of %d satellites", c, n, len(snap))
	}
	seen := 0
	for _, obs := range []astro.Geodetic{{LatDeg: 10, LonDeg: 20}, {LatDeg: 12, LonDeg: 23}, {LatDeg: -40, LonDeg: -100}} {
		for _, mask := range []float64{1, 25} {
			got, want := ix.ObserveFrom(obs, mask), ObserveFrom(obs, snap, mask)
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("obs %+v mask %v: index %d sats, linear %d", obs, mask, len(got), len(want))
			}
			seen += len(want)
		}
	}
	if seen == 0 {
		t.Fatal("no query saw a satellite; the comparison is vacuous")
	}
}

// TestIndexEmptyEndCells: with the first cell (south pole, first
// column) and the last (north pole, last column) empty, the offsets
// still run from 0 to the satellite count and queries at both poles
// match the linear scan.
func TestIndexEmptyEndCells(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var snap []SatState
	for _, st := range randomSnapshot(rng, 800) {
		if lat := math.Abs(math.Asin(st.ECEF.Z / st.ECEF.Norm())); units.Rad2Deg(lat) < 70 {
			snap = append(snap, st)
		}
	}
	ix := NewSnapshotIndex(snap)
	checkCells(t, ix, snap)
	last := len(ix.start) - 2
	if ix.start[1] != 0 || ix.start[last] != ix.start[last+1] {
		t.Fatalf("end cells hold %d and %d satellites, want none", ix.start[1], ix.start[last+1]-ix.start[last])
	}
	seen := 0
	for _, obs := range []astro.Geodetic{{LatDeg: 90}, {LatDeg: -90}, {LatDeg: 60, LonDeg: 179.9}, {LatDeg: -60, LonDeg: -179.9}} {
		for _, mask := range []float64{1, 10, 25} {
			got, want := ix.ObserveFrom(obs, mask), ObserveFrom(obs, snap, mask)
			if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("obs %+v mask %v: index %d sats, linear %d", obs, mask, len(got), len(want))
			}
			seen += len(want)
		}
	}
	if seen == 0 {
		t.Fatal("no query saw a satellite; the comparison is vacuous")
	}
}

// TestCapRadiusDeg pins the footprint geometry: a 550 km shell at the
// 25° mask subtends about 8.7°, and degenerate inputs report !ok.
func TestCapRadiusDeg(t *testing.T) {
	lam, ok := capRadiusDeg(units.EarthRadiusKm, units.EarthRadiusKm+550, 25)
	if !ok || math.Abs(lam-8.7) > 0.5 {
		t.Fatalf("capRadiusDeg(550 km, 25°) = %.2f, %v; want ≈8.7, true", lam, ok)
	}
	if _, ok := capRadiusDeg(units.EarthRadiusKm, units.EarthRadiusKm-1, 25); ok {
		t.Fatal("satellite below observer radius should be degenerate")
	}
	if _, ok := capRadiusDeg(units.EarthRadiusKm, units.EarthRadiusKm+550, -2); ok {
		t.Fatal("negative mask should be degenerate")
	}
}

// TestIndexNonStarlinkShellAltitudes pins the grid sizing and the
// index-vs-linear-scan equivalence at the Walker-star preset
// altitudes (Kepler 600 km, Iridium NEXT 780 km, OneWeb 1200 km), so
// the "provably same set, same order" property is exercised well
// outside the 540–570 km band campaigns historically ran at.
func TestIndexNonStarlinkShellAltitudes(t *testing.T) {
	designs := []struct {
		name   string
		shells []Shell
		altKm  float64
	}{
		{"kepler", KeplerShells(), 600},
		{"iridium-next", IridiumNextShells(), 780},
		{"oneweb", OneWebShells(), 1200},
	}
	var prevLam float64
	for _, d := range designs {
		// Footprint half-angle grows monotonically with altitude.
		lam, ok := capRadiusDeg(units.EarthRadiusKm, units.EarthRadiusKm+d.altKm, indexMaskRefDeg)
		if !ok {
			t.Fatalf("%s: degenerate footprint at %v km", d.name, d.altKm)
		}
		if lam <= prevLam {
			t.Fatalf("%s: footprint %v° not larger than lower shell's %v°", d.name, lam, prevLam)
		}
		prevLam = lam

		c, err := New(Config{Shells: d.shells, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		snap := fullSnapshot(c, c.Epoch.Add(45*time.Minute))
		if len(snap) != c.Len() {
			t.Fatalf("%s: snapshot dropped satellites (%d of %d)", d.name, len(snap), c.Len())
		}
		ix := NewSnapshotIndex(snap)

		// The grid's cell size must match the analytic footprint of the
		// snapshot's highest radius, clamped exactly as Rebuild documents.
		maxR := 0.0
		for i := range snap {
			if r := snap[i].ECEF.Norm(); r > maxR {
				maxR = r
			}
		}
		wantCell := 8.0
		if lam, ok := capRadiusDeg(units.EarthRadiusKm, maxR, indexMaskRefDeg-indexMarginDeg); ok {
			wantCell = units.Clamp(lam, 2, 30)
		}
		latN, lonN := ix.Cells()
		if latN != int(math.Ceil(180/wantCell)) || lonN != int(math.Ceil(360/wantCell)) {
			t.Fatalf("%s: grid %dx%d does not match analytic cell %.3f°", d.name, latN, lonN, wantCell)
		}

		// Equivalence: seeded-random observers plus the classic traps
		// (poles, antimeridian), at masks below and above the reference.
		rng := rand.New(rand.NewSource(int64(len(snap))))
		observers := []astro.Geodetic{
			{LatDeg: 90}, {LatDeg: -90},
			{LatDeg: 0, LonDeg: 180}, {LatDeg: 51.2, LonDeg: 179.9},
			{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2},
		}
		for i := 0; i < 6; i++ {
			observers = append(observers, astro.Geodetic{
				LatDeg: rng.Float64()*180 - 90,
				LonDeg: rng.Float64()*360 - 180,
				AltKm:  rng.Float64() * 2,
			})
		}
		for _, obs := range observers {
			for _, mask := range []float64{5, 15, 25, 40} {
				want := ObserveFrom(obs, snap, mask)
				got := ix.ObserveFrom(obs, mask)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s obs (%.2f, %.2f) mask %v: index %d sats vs linear %d — %s",
						d.name, obs.LatDeg, obs.LonDeg, mask, len(got), len(want), firstDivergence(got, want))
				}
			}
		}
	}
}

// NewSnapshotIndex builds the grid over a propagated snapshot. Cost is
// one pass over the snapshot; the snapshot slice is referenced, not
// copied, and must not be mutated afterwards (snapshots never are).
func NewSnapshotIndex(snap []SatState) *SnapshotIndex {
	ix := &SnapshotIndex{}
	ix.Rebuild(snap)
	return ix
}

// ObserveFrom answers the same question as the package-level
// ObserveFrom over this index's snapshot — identical set, identical
// order, identical floats — in near-O(visible).
func (ix *SnapshotIndex) ObserveFrom(obs astro.Geodetic, minElevDeg float64) []Visible {
	return ix.AppendObserveFrom(nil, obs, minElevDeg)
}

// Cells reports the grid dimensions (lat bands × lon columns).
func (ix *SnapshotIndex) Cells() (lat, lon int) { return ix.latCells, ix.lonCells }
