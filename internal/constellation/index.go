package constellation

import (
	"math"
	"slices"

	"repro/internal/astro"
	"repro/internal/units"
)

// SnapshotIndex buckets one propagated snapshot into a geocentric
// lat/lon grid so that "which satellites are above minElev from
// (lat, lon)" is answered in near-O(visible) instead of O(constellation).
//
// Geometry. A satellite at geocentric radius rs seen at elevation E by
// an observer at radius ro subtends the Earth-central angle
//
//	λ(E) = acos((ro/rs)·cos E) − E
//
// (exact triangle geometry, no spherical-Earth assumption), so every
// satellite above the mask lies within a spherical cap of radius
// λmax = λ(minElev − margin) around the observer's geocentric
// direction. The margin absorbs the only approximation in the chain:
// astro.Observe measures elevation against the geodetic vertical,
// which deviates from the geocentric vertical by at most ~0.2°. Cells
// are sized from that footprint radius at the hardware's 25° mask and
// the snapshot's highest shell, so a query touches a small constant
// neighborhood of cells; candidates from those cells then pass through
// the exact astro.Observe filter, which is why the index provably
// returns the same set as the linear scan — the cap bound only ever
// over-approximates. Results are sorted with sortVisible, so the order
// matches the linear scan too.
//
// Masks low enough that minElev − margin drops below 0° (where the cap
// bound degenerates) fall back to scanning every cell; the result is
// still exact, just no faster than ObserveFrom.
//
// Layout. The cells are two flat arrays in compressed sparse row form,
// offsets and satellite indices, so an index costs a few kilobytes
// however many cells the grid has, and a recycled index rebuilds
// without allocating.
type SnapshotIndex struct {
	snap []SatState

	latCellDeg, lonCellDeg float64
	latCells, lonCells     int
	// The cells in compressed sparse row form: cell c lists the
	// snapshot indices idx[start[c]:start[c+1]], in snapshot order,
	// so start has one offset per cell plus one and idx one entry per
	// satellite. cell is Rebuild's scratch: each satellite's cell.
	start, idx, cell []int32

	maxRadiusKm float64 // largest geocentric satellite radius in the snapshot

	// cover is the sight set of the cache whose snapshot this indexes
	// (nil: every query is answerable).
	cover coverage
}

// indexMaskRefDeg is the reference elevation mask the grid cell size is
// derived from: the paper's (and Starlink's) 25° hardware mask.
const indexMaskRefDeg = 25.0

// indexMarginDeg guards the cap bound against the geodetic-vs-
// geocentric vertical deflection (≤ ~0.2°); generously padded.
const indexMarginDeg = 1.5

// Rebuild re-points the index at a new snapshot, reusing the previous
// build's arrays when they are large enough (the offsets always are
// when the grid dimensions match, as they do whenever the highest
// shell is unchanged, i.e. every steady-state slot). This is what lets
// the SnapshotCache recycle a released slot's index for the next slot
// without allocating. The cells are filled by a stable counting sort,
// so each lists its satellites in snapshot order.
func (ix *SnapshotIndex) Rebuild(snap []SatState) {
	ix.snap = snap
	ix.maxRadiusKm = 0
	for i := range snap {
		if r := snap[i].ECEF.Norm(); r > ix.maxRadiusKm {
			ix.maxRadiusKm = r
		}
	}
	// Cell size: the footprint radius at the 25° reference mask for the
	// snapshot's highest shell, so a 25°-mask query scans a ~3×3 cell
	// neighborhood. Clamped: tiny constellations or degenerate radii
	// must not produce absurd grids.
	cell := 8.0
	if lam, ok := capRadiusDeg(units.EarthRadiusKm, ix.maxRadiusKm, indexMaskRefDeg-indexMarginDeg); ok {
		cell = units.Clamp(lam, 2, 30)
	}
	ix.latCells = int(math.Ceil(180 / cell))
	ix.latCellDeg = 180 / float64(ix.latCells)
	ix.lonCells = int(math.Ceil(360 / cell))
	ix.lonCellDeg = 360 / float64(ix.lonCells)
	cells := ix.latCells * ix.lonCells
	// Grown with append's headroom, so a recycled index rarely grows.
	ix.start = slices.Grow(ix.start[:0], cells+1)[:cells+1]
	clear(ix.start)
	ix.idx = slices.Grow(ix.idx[:0], len(snap))[:len(snap)]
	ix.cell = slices.Grow(ix.cell[:0], len(snap))[:len(snap)]
	// Count each cell's satellites into start[c+1], sum the counts so
	// start[c] is where cell c begins, then place every satellite at
	// its cell's cursor. That leaves start[c] at cell c's end, the next
	// cell's beginning, so shifting by one restores the offsets.
	for i := range snap {
		c := int32(ix.cellOf(snap[i].ECEF))
		ix.cell[i] = c
		ix.start[c+1]++
	}
	for c := 1; c <= cells; c++ {
		ix.start[c] += ix.start[c-1]
	}
	for i, c := range ix.cell {
		ix.idx[ix.start[c]] = int32(i)
		ix.start[c]++
	}
	copy(ix.start[1:], ix.start[:cells])
	ix.start[0] = 0
}

// Len returns the number of satellites indexed.
func (ix *SnapshotIndex) Len() int { return len(ix.snap) }

// capRadiusDeg returns the Earth-central half-angle of the visibility
// cap for an observer at radius ro, satellites at radius rs, elevation
// mask elevDeg. ok is false when the geometry degenerates (satellite at
// or below the observer's radius, or a mask where the bound is
// meaningless).
func capRadiusDeg(roKm, rsKm, elevDeg float64) (float64, bool) {
	if elevDeg < 0 || rsKm <= roKm || roKm <= 0 {
		return 0, false
	}
	e := units.Deg2Rad(elevDeg)
	lam := math.Acos(units.Clamp(roKm/rsKm*math.Cos(e), -1, 1)) - e
	if lam <= 0 {
		return 0, false
	}
	return units.Rad2Deg(lam), true
}

// cellOf maps an ECEF position to its grid cell by geocentric lat/lon.
func (ix *SnapshotIndex) cellOf(p units.Vec3) int {
	latDeg := units.Rad2Deg(math.Asin(units.Clamp(p.Z/p.Norm(), -1, 1)))
	lonDeg := units.Rad2Deg(math.Atan2(p.Y, p.X))
	return ix.cellAt(latDeg, lonDeg)
}

// cellAt maps geocentric (lat, lon) degrees to a cell index.
func (ix *SnapshotIndex) cellAt(latDeg, lonDeg float64) int {
	lb := int((latDeg + 90) / ix.latCellDeg)
	if lb < 0 {
		lb = 0
	}
	if lb >= ix.latCells {
		lb = ix.latCells - 1
	}
	lc := int(math.Floor((lonDeg + 180) / ix.lonCellDeg))
	lc = ((lc % ix.lonCells) + ix.lonCells) % ix.lonCells
	return lb*ix.lonCells + lc
}

// query is the cap→cells→exact-filter walk. For every satellite in a
// cell the cap bound could contain, it computes the exact look angles
// and calls visit for those at or above minElevDeg. Enumeration order
// is grid order, NOT the deterministic output order — callers that
// expose results must sort with sortVisible (ObserveFrom does).
func (ix *SnapshotIndex) query(obs astro.Geodetic, minElevDeg float64, visit func(st *SatState, la astro.LookAngles)) {
	o := astro.NewObserver(obs)
	scan := func(idx []int32) {
		for _, i := range idx {
			st := &ix.snap[i]
			la := o.Observe(st.ECEF)
			if la.ElevationDeg < minElevDeg {
				continue
			}
			visit(st, la)
		}
	}

	oe := o.ECEF()
	ro := oe.Norm()
	lamDeg, ok := capRadiusDeg(ro, ix.maxRadiusKm, minElevDeg-indexMarginDeg)
	if !ok {
		// Degenerate geometry (mask near/below the horizon, or satellites
		// at the observer's radius): correct but unaccelerated.
		scan(ix.idx)
		return
	}

	// Geocentric direction of the observer; the cap of radius lamDeg
	// around it bounds every above-mask satellite direction.
	obsLat := units.Rad2Deg(math.Asin(units.Clamp(oe.Z/ro, -1, 1)))
	obsLon := units.Rad2Deg(math.Atan2(oe.Y, oe.X))

	latLo := int(math.Floor((obsLat - lamDeg + 90) / ix.latCellDeg))
	latHi := int(math.Floor((obsLat + lamDeg + 90) / ix.latCellDeg))
	if latLo < 0 {
		latLo = 0
	}
	if latHi >= ix.latCells {
		latHi = ix.latCells - 1
	}

	// Longitude extent of the cap (standard spherical bounding box): if
	// the cap contains a pole, it spans every longitude; otherwise
	// Δlon = asin(sin λ / cos φ_obs), and the wraparound walk below
	// handles the antimeridian.
	allLon := math.Abs(obsLat)+lamDeg >= 90
	cols := ix.lonCells
	lonLo := 0
	if !allLon {
		dLon := units.Rad2Deg(math.Asin(units.Clamp(
			math.Sin(units.Deg2Rad(lamDeg))/math.Cos(units.Deg2Rad(obsLat)), -1, 1)))
		lonLo = int(math.Floor((obsLon - dLon + 180) / ix.lonCellDeg))
		cols = int(math.Floor((obsLon+dLon+180)/ix.lonCellDeg)) - lonLo + 1
		if cols >= ix.lonCells {
			cols = ix.lonCells
			lonLo = 0
		}
	}

	for lb := latLo; lb <= latHi; lb++ {
		row := lb * ix.lonCells
		for k := 0; k < cols; k++ {
			c := row + ((lonLo+k)%ix.lonCells+ix.lonCells)%ix.lonCells
			scan(ix.idx[ix.start[c]:ix.start[c+1]])
		}
	}
}

// AppendObserveFrom answers the same question as the package-level
// AppendObserveFrom over this index's snapshot — identical set,
// identical order, identical floats — in near-O(visible), appending
// into dst so callers can reuse a scratch slice across queries. Like
// SharedSnapshot.AppendObserveFrom, it panics on a query the snapshot's
// sights do not cover.
func (ix *SnapshotIndex) AppendObserveFrom(dst []Visible, obs astro.Geodetic, minElevDeg float64) []Visible {
	ix.cover.check(obs, minElevDeg)
	base := len(dst)
	ix.query(obs, minElevDeg, func(st *SatState, la astro.LookAngles) {
		dst = append(dst, Visible{Sat: st.Sat, Look: la, Sunlit: st.Sunlit, ECEF: st.ECEF})
	})
	sortVisible(dst[base:])
	return dst
}
