// Package astro implements the coordinate frames and ephemerides the
// reproduction needs: Greenwich sidereal time, the TEME→ECEF rotation
// used to ground SGP4 output, geodetic conversions for terminal
// positions, topocentric look angles (angle of elevation, azimuth,
// range), a low-precision solar ephemeris, and the Earth-shadow test
// that decides whether a satellite is sunlit.
//
// Precision notes: GMST uses the IAU 1982 series; the solar ephemeris
// is the low-precision formulation from the Astronomical Almanac
// (±0.01° over decades), far more accurate than the 15-second
// scheduling granularity this module is used to study. Polar motion
// and UT1-UTC are ignored (sub-arcsecond effects).
package astro

import (
	"math"
	"time"

	"repro/internal/tle"
	"repro/internal/units"
)

// GMST returns the Greenwich Mean Sidereal Time in radians, in
// [0, 2π), for the given time (IAU 1982 model).
func GMST(t time.Time) float64 {
	jd := tle.JulianDate(t)
	// Julian centuries from J2000.
	tut1 := (jd - 2451545.0) / 36525.0
	secs := 67310.54841 +
		(876600.0*3600.0+8640184.812866)*tut1 +
		0.093104*tut1*tut1 -
		6.2e-6*tut1*tut1*tut1
	theta := math.Mod(secs, 86400.0) / 240.0 // seconds -> degrees
	return units.WrapRadTwoPi(units.Deg2Rad(theta))
}

// Frame is the TEME→ECEF rotation at one instant, with the sidereal
// angle's sine and cosine precomputed: it grounds SGP4 output (TEME)
// in the Earth-fixed frame by the GMST rotation about the Z axis. A
// snapshot sweep over thousands of satellites shares one instant, so
// hoisting FrameAt out of the per-satellite loop removes the repeated
// Julian-date reduction and trig from the hot path.
type Frame struct {
	cosTheta, sinTheta float64
}

// FrameAt computes the rotation frame for time t (one GMST evaluation,
// one sin/cos pair).
func FrameAt(t time.Time) Frame {
	theta := GMST(t)
	return Frame{cosTheta: math.Cos(theta), sinTheta: math.Sin(theta)}
}

// ToECEF rotates a TEME position into the Earth-fixed frame.
func (f Frame) ToECEF(posTEME units.Vec3) units.Vec3 {
	c, s := f.cosTheta, f.sinTheta
	return units.Vec3{
		X: c*posTEME.X + s*posTEME.Y,
		Y: -s*posTEME.X + c*posTEME.Y,
		Z: posTEME.Z,
	}
}

// Geodetic is a position on (or above) the WGS-84 ellipsoid.
type Geodetic struct {
	LatDeg float64 // geodetic latitude, degrees, north positive
	LonDeg float64 // longitude, degrees, east positive
	AltKm  float64 // height above ellipsoid, km
}

// ToECEF converts a geodetic position to ECEF coordinates in km.
func (g Geodetic) ToECEF() units.Vec3 {
	lat := units.Deg2Rad(g.LatDeg)
	lon := units.Deg2Rad(g.LonDeg)
	a := units.EarthRadiusWGS84Km
	f := units.EarthFlatteningWGS84
	e2 := f * (2 - f)
	sinLat := math.Sin(lat)
	n := a / math.Sqrt(1-e2*sinLat*sinLat)
	return units.Vec3{
		X: (n + g.AltKm) * math.Cos(lat) * math.Cos(lon),
		Y: (n + g.AltKm) * math.Cos(lat) * math.Sin(lon),
		Z: (n*(1-e2) + g.AltKm) * sinLat,
	}
}

// LookAngles is a topocentric observation of a satellite from a ground
// observer: angle of elevation above the horizon, azimuth clockwise
// from true north, and slant range.
type LookAngles struct {
	ElevationDeg float64 // angle of elevation, degrees; negative = below horizon
	AzimuthDeg   float64 // degrees clockwise from north, [0, 360)
	RangeKm      float64 // slant range, km
}

// Observer is a ground observer with its ECEF position and local-frame
// rotation precomputed. Construct once per site and reuse when many
// satellites are observed from the same point: the geodetic→ECEF
// conversion and the four trig calls are hoisted out of the
// per-satellite loop, and the look angles are the same whichever
// Observer of the site computes them.
type Observer struct {
	ecef                           units.Vec3
	sinLat, cosLat, sinLon, cosLon float64
}

// NewObserver precomputes the observer-side terms of Observe.
func NewObserver(obs Geodetic) Observer {
	lat := units.Deg2Rad(obs.LatDeg)
	lon := units.Deg2Rad(obs.LonDeg)
	return Observer{
		ecef:   obs.ToECEF(),
		sinLat: math.Sin(lat), cosLat: math.Cos(lat),
		sinLon: math.Sin(lon), cosLon: math.Cos(lon),
	}
}

// ECEF returns the observer's precomputed ECEF position in km.
func (o *Observer) ECEF() units.Vec3 { return o.ecef }

// Observe computes the look angles to a satellite position in ECEF km.
func (o *Observer) Observe(satECEF units.Vec3) LookAngles {
	d := satECEF.Sub(o.ecef)
	sinLat, cosLat := o.sinLat, o.cosLat
	sinLon, cosLon := o.sinLon, o.cosLon

	// Rotate the difference vector into the local SEZ (south-east-zenith)
	// frame.
	s := sinLat*cosLon*d.X + sinLat*sinLon*d.Y - cosLat*d.Z
	e := -sinLon*d.X + cosLon*d.Y
	z := cosLat*cosLon*d.X + cosLat*sinLon*d.Y + sinLat*d.Z

	rng := d.Norm()
	el := math.Asin(units.Clamp(z/rng, -1, 1))
	az := math.Atan2(e, -s) // az from north, clockwise
	return LookAngles{
		ElevationDeg: units.Rad2Deg(el),
		AzimuthDeg:   units.WrapDeg360(units.Rad2Deg(az)),
		RangeKm:      rng,
	}
}

// SunPositionECI returns the position of the Sun in an Earth-centered
// inertial frame (geocentric, mean-equator-of-date — adequate for
// shadow geometry) in km, using the Astronomical Almanac low-precision
// formulae.
func SunPositionECI(t time.Time) units.Vec3 {
	jd := tle.JulianDate(t)
	n := jd - 2451545.0
	// Mean longitude and mean anomaly of the Sun, degrees.
	l := units.WrapDeg360(280.460 + 0.9856474*n)
	g := units.Deg2Rad(units.WrapDeg360(357.528 + 0.9856003*n))
	// Ecliptic longitude.
	lambda := units.Deg2Rad(l + 1.915*math.Sin(g) + 0.020*math.Sin(2*g))
	// Distance in AU.
	rAU := 1.00014 - 0.01671*math.Cos(g) - 0.00014*math.Cos(2*g)
	// Obliquity of the ecliptic.
	eps := units.Deg2Rad(23.439 - 0.0000004*n)
	r := rAU * units.AUKm
	return units.Vec3{
		X: r * math.Cos(lambda),
		Y: r * math.Cos(eps) * math.Sin(lambda),
		Z: r * math.Sin(eps) * math.Sin(lambda),
	}
}

// Shadow is the Earth's umbra cone for one Sun position, with the
// shadow-axis direction and cone constants (apex distance, half-angle
// tangent) hoisted out of the per-satellite test. A
// full-constellation snapshot computes the constants once and pays
// only a dot product, a norm, and a multiply per satellite.
type Shadow struct {
	sunDir   units.Vec3 // unit vector toward the Sun
	apexDist float64    // Earth center → umbra apex, km
	alpha    float64    // umbra half-angle, radians
	tanAlpha float64    // tangent of the umbra half-angle
}

// NewShadow precomputes the umbra cone for a geocentric Sun position
// in km.
func NewShadow(sun units.Vec3) Shadow {
	sunDist := sun.Norm()
	// Half-angle of the umbra cone.
	alpha := math.Asin((units.SunRadiusKm - units.EarthRadiusKm) / sunDist)
	return Shadow{
		sunDir: sun.Unit(),
		// Distance from Earth's center to the umbra apex.
		apexDist: units.EarthRadiusKm / math.Sin(alpha),
		alpha:    alpha,
		tanAlpha: math.Tan(alpha),
	}
}

// Sunlit reports whether a satellite at the given geocentric position
// (km) is outside the umbra.
func (sh *Shadow) Sunlit(sat units.Vec3) bool {
	// Component of satellite position along the anti-solar axis.
	along := sat.Dot(sh.sunDir)
	if along >= 0 {
		// Satellite is on the day side of the Earth's center plane.
		return true
	}
	// Perpendicular distance from the shadow axis.
	perp := sat.Sub(sh.sunDir.Scale(along)).Norm()
	behind := -along // positive km behind Earth's center
	if behind >= sh.apexDist {
		return true // beyond the umbra apex
	}
	// Radius of the umbra at the satellite's along-axis distance.
	return perp > (sh.apexDist-behind)*sh.tanAlpha
}

// SunlitBand is a radius bound [rLoKm, rHiKm] together with the
// angles asin(R⊕/r) at its two ends, which SunlitGapRad's boundary
// band is made of. They depend only on the radii, so a caller that
// asks about many shadows for one bound computes them once, with
// NewSunlitBand.
type SunlitBand struct {
	rLoKm, rHiKm float64
	asinLo       float64 // asin(R⊕/rLoKm)
	asinHi       float64 // asin(R⊕/rHiKm)
}

// NewSunlitBand returns the band for radii in [rLoKm, rHiKm].
func NewSunlitBand(rLoKm, rHiKm float64) SunlitBand {
	return SunlitBand{
		rLoKm: rLoKm, rHiKm: rHiKm,
		asinLo: math.Asin(units.EarthRadiusKm / rLoKm),
		asinHi: math.Asin(units.EarthRadiusKm / rHiKm),
	}
}

// SunlitGapRad returns how far, in radians of arc, the direction of a
// satellite at sat must turn about the Earth's center before Sunlit
// could change, for any radius in the band b; 0 when no such margin is
// proven. Sunlit's cone test is, in angles, "the angle ψ between sat
// and the anti-solar axis is at most asin(R⊕/r) − α" (r·sin(ψ+α) ≤ R⊕,
// for ψ < 90° and r short of the apex), so the boundary sweeps
// [asin(R⊕/rHi) − α, asin(R⊕/rLo) − α] as the radius varies, and the
// gap is the distance from ψ to the near end of that band. Radii at or
// inside the umbra's radius at the Earth's center (R⊕/cos α) or beyond
// its apex give 0.
func (sh *Shadow) SunlitGapRad(sat units.Vec3, b *SunlitBand) float64 {
	r := sat.Norm()
	if !(b.rLoKm > sh.apexDist*sh.tanAlpha) || !(b.rHiKm < sh.apexDist) || r == 0 {
		return 0
	}
	psi := math.Acos(units.Clamp(-sat.Dot(sh.sunDir)/r, -1, 1))
	inner := b.asinHi - sh.alpha
	outer := b.asinLo - sh.alpha
	gap := inner - psi // in the umbra: distance to its smallest edge
	if sh.Sunlit(sat) {
		gap = psi - outer
	}
	return math.Max(gap, 0)
}
