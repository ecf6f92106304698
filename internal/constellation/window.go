package constellation

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/astro"
	"repro/internal/units"
)

// Sight is one ground site whose field of view a SnapshotCache must
// answer exactly: every satellite at or above MinElevDeg from Site is
// in every snapshot the cache hands out. A query from another site, or
// below MinElevDeg, fails loudly (see SharedSnapshot.AppendObserveFrom).
type Sight struct {
	Site       astro.Geodetic
	MinElevDeg float64
}

// coverage maps each site of a cache's sights to its lowest mask; nil
// covers every query, because a cache with no sights propagates every
// satellite.
type coverage map[astro.Geodetic]float64

// newCoverage returns the coverage of sights (nil for none).
func newCoverage(sights []Sight) coverage {
	if len(sights) == 0 {
		return nil
	}
	cv := make(coverage, len(sights))
	for _, s := range sights {
		if m, ok := cv[s.Site]; !ok || s.MinElevDeg < m {
			cv[s.Site] = s.MinElevDeg
		}
	}
	return cv
}

// check panics unless some sight covers a field-of-view query from obs
// at minElevDeg: the same site, at its mask or above.
func (cv coverage) check(obs astro.Geodetic, minElevDeg float64) {
	if cv == nil {
		return
	}
	if m, ok := cv[obs]; ok && minElevDeg >= m {
		return
	}
	panic(fmt.Sprintf("constellation: field of view from %+v at %v° is not among the snapshot cache's sights; "+
		"its snapshots hold only the satellites those sights can see", obs, minElevDeg))
}

// A validity window never exceeds maxWindow on either side of the
// instant a satellite was propagated at, so the motion bounds are
// taken over a known span.
const maxWindow = 30 * time.Minute

// Margins of the windows, beyond the satellite's own motion.
const (
	// sunDriftRadS bounds the turn rate of SunPositionECI's direction:
	// its ecliptic longitude advances by at most 0.9856474 + (1.915 +
	// 2·0.020)·0.9856003·π/180 ≈ 1.019°/day = 2.06e-7 rad/s.
	sunDriftRadS = 2.2e-7
	// umbraDriftRadS bounds the change of the umbra half-angle α ≈
	// (R☉ − R⊕)/d with the Earth–Sun distance d: |ḋ| < 0.6 km/s gives
	// |α̇| < α·|ḋ|/d ≈ 2e-11 rad/s.
	umbraDriftRadS = 1e-10
	// gapMarginRad absorbs the rounding of the angles a gap is made of.
	gapMarginRad = 1e-6
)

// boundedEphemeris is a propagator that bounds its own motion. Both
// built-in propagators are; a satellite whose propagator is not is
// propagated at every snapshot.
type boundedEphemeris interface {
	SpeedBoundKmS(t time.Time) float64
	RadiusBoundKm(t time.Time) (lo, hi float64)
}

// sightCellDeg is the size of the lat/lon cells a sight group merges
// its sites by: a fleet of thousands of terminals costs a window one
// angle per occupied cell, not one per terminal.
const sightCellDeg = 4.0

// sightGroup is the sights that share one mask, merged by cell: every
// site lies within spreadRad of the center of its cell's sites.
type sightGroup struct {
	elevDeg   float64      // the mask less the index's cap margin
	roKm      float64      // the smallest observer radius, whose cap is the widest
	centers   []units.Vec3 // geocentric unit direction of each occupied cell's sites
	spreadRad float64      // the largest angle from a center to one of its sites
}

// boundSpan is the bucket of propagation instants one evaluation of a
// satellite's motion bounds serves (see satBounds).
const boundSpan = 6 * time.Hour

// satBounds is one satellite's motion bounds for windows opened at any
// instant of one boundSpan bucket, so over the bucket widened by
// maxWindow on both sides.
type satBounds struct {
	bucket int64            // the bucket these bounds are for (noBucket: none yet)
	rLo    float64          // lower radius bound, km; 0 when a propagation could fail
	rate   float64          // bound on the turn rate of the satellite's direction, rad/s
	band   astro.SunlitBand // the radius bounds as the shadow gap reads them
}

const noBucket = math.MinInt64

// windows is a bounded sweep's memory of one constellation: for every
// satellite, the span of instants around its last exact propagation
// over which it provably keeps its sunlit state and stays out of every
// sight's visibility cap, and that sunlit state. A sweep at an instant
// inside a satellite's window carries it: its sunlit state is reused
// and it is left out of the snapshot's States, which nothing can miss,
// since no covered query can see it.
type windows struct {
	mu     sync.Mutex // held for a whole sweep
	groups []sightGroup
	lo, hi []int64 // window [lo, hi] in UnixNano; lo > hi when shut
	sunlit []bool
	bounds []satBounds
	// capRad holds, per satellite and sight group, the group's cap
	// radius for the satellite's bounds (satellite i's at
	// i*len(groups)+k).
	capRad []float64
	// scratch is the sweep's one entry per satellite, written by
	// index; a cache entry keeps a copy of only the states the sweep
	// propagated (see SnapshotCache.Acquire).
	scratch []SatState
}

// newWindows returns n shut windows for the sights' caps.
func newWindows(sights []Sight, n int) *windows {
	w := &windows{lo: make([]int64, n), hi: make([]int64, n), sunlit: make([]bool, n), bounds: make([]satBounds, n)}
	for i := range w.lo {
		w.shut(i)
		w.bounds[i].bucket = noBucket
	}
	type cellKey struct {
		elev     float64
		lat, lon int
	}
	var keys []cellKey
	members := map[cellKey][]units.Vec3{}
	for _, s := range sights {
		o := astro.NewObserver(s.Site)
		oe := o.ECEF()
		ro := oe.Norm()
		elev := s.MinElevDeg - indexMarginDeg
		k := 0
		for k < len(w.groups) && w.groups[k].elevDeg != elev {
			k++
		}
		if k == len(w.groups) {
			w.groups = append(w.groups, sightGroup{elevDeg: elev, roKm: ro})
		}
		w.groups[k].roKm = math.Min(w.groups[k].roKm, ro)
		dir := oe.Scale(1 / ro)
		key := cellKey{elev: elev,
			lat: int(math.Floor(units.Rad2Deg(math.Asin(units.Clamp(dir.Z, -1, 1))) / sightCellDeg)),
			lon: int(math.Floor(units.Rad2Deg(math.Atan2(dir.Y, dir.X)) / sightCellDeg))}
		if _, ok := members[key]; !ok {
			keys = append(keys, key)
		}
		members[key] = append(members[key], dir)
	}
	for _, key := range keys {
		var sum units.Vec3
		for _, d := range members[key] {
			sum = sum.Add(d)
		}
		center := sum.Unit()
		k := 0
		for w.groups[k].elevDeg != key.elev {
			k++
		}
		g := &w.groups[k]
		for _, d := range members[key] {
			g.spreadRad = math.Max(g.spreadRad, math.Acos(units.Clamp(center.Dot(d), -1, 1)))
		}
		g.centers = append(g.centers, center)
	}
	w.capRad = make([]float64, n*len(w.groups))
	return w
}

// carries reports whether satellite i's window holds the instant unix.
func (w *windows) carries(i int, unix int64) bool {
	return w != nil && w.lo[i] <= unix && unix <= w.hi[i]
}

// shut closes satellite i's window.
func (w *windows) shut(i int) {
	if w != nil {
		w.lo[i], w.hi[i] = 1, 0
	}
}

// open reopens satellite i's window around the instant unix
// (UnixNano), where it was just propagated to TEME position pos (ECEF
// ecef) with the given sunlit state.
func (w *windows) open(i int, s *Satellite, unix int64, pos, ecef units.Vec3, sunlit bool, shadow *astro.Shadow) {
	if w == nil {
		return
	}
	w.shut(i)
	if half := w.halfWidth(i, s, unix, pos, ecef, shadow); half > 0 {
		d := int64(half * 1e9)
		w.lo[i], w.hi[i], w.sunlit[i] = unix-d, unix+d, sunlit
	}
}

// boundsAt returns satellite i's bounds for a window opened at the
// instant unix, evaluating them once per boundSpan bucket.
func (w *windows) boundsAt(i int, s *Satellite, unix int64) *satBounds {
	sb := &w.bounds[i]
	bucket := unix / int64(boundSpan)
	if unix < 0 && unix%int64(boundSpan) != 0 {
		bucket-- // floor
	}
	if sb.bucket == bucket {
		return sb
	}
	*sb = satBounds{bucket: bucket}
	b, ok := s.Propagator.(boundedEphemeris)
	if !ok {
		return sb
	}
	// Over a bucket widened by maxWindow the mean orbit decays steadily
	// and the eccentricity bound grows with the time from epoch, so the
	// bounds at the two ends cover every instant between.
	start := time.Unix(0, bucket*int64(boundSpan))
	early, late := start.Add(-maxWindow), start.Add(boundSpan+maxWindow)
	rLo, rHi := b.RadiusBoundKm(early)
	lo2, hi2 := b.RadiusBoundKm(late)
	rLo, rHi = math.Min(rLo, lo2), math.Max(rHi, hi2)
	speed := math.Max(b.SpeedBoundKmS(early), b.SpeedBoundKmS(late))
	if !(rLo > 0) || math.IsInf(rHi, 1) || math.IsInf(speed, 1) {
		return sb // a propagation in the bucket could fail
	}
	sb.rLo, sb.rate = rLo, speed/rLo // the rate holds inertial or Earth-fixed alike
	sb.band = astro.NewSunlitBand(rLo, rHi)
	caps := w.capRad[i*len(w.groups) : (i+1)*len(w.groups)]
	for k, g := range w.groups {
		lamDeg, ok := capRadiusDeg(g.roKm, rHi, g.elevDeg)
		if !ok {
			sb.rLo = 0
			return sb
		}
		caps[k] = units.Deg2Rad(lamDeg)
	}
	return sb
}

// halfWidth returns, in seconds, how long on either side of unix the
// satellite at pos (ecef) cannot change its sunlit state or enter a
// sight's cap; 0 when nothing is proven. Both are angles on the orbit
// shell: the gap between the satellite's direction and the shadow
// boundary, and between it and each cap's edge, divided by the fastest
// the direction can turn, the speed bound over the smallest radius.
func (w *windows) halfWidth(i int, s *Satellite, unix int64, pos, ecef units.Vec3, shadow *astro.Shadow) float64 {
	sb := w.boundsAt(i, s, unix)
	if !(sb.rLo > 0) {
		return 0
	}
	half := maxWindow.Seconds()
	half = math.Min(half, (shadow.SunlitGapRad(pos, &sb.band)-gapMarginRad)/(sb.rate+sunDriftRadS+umbraDriftRadS))
	r := ecef.Norm()
	caps := w.capRad[i*len(w.groups) : (i+1)*len(w.groups)]
	for k, g := range w.groups {
		best := -r
		for _, c := range g.centers {
			best = math.Max(best, c.Dot(ecef))
		}
		theta := math.Acos(units.Clamp(best/r, -1, 1))
		half = math.Min(half, (theta-g.spreadRad-caps[k]-gapMarginRad)/sb.rate)
	}
	return half
}
