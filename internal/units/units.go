// Package units provides small numeric helpers shared across the
// simulator: degree/radian conversion, angle wrapping, and physical
// constants used by the orbital and link-budget models.
//
// All angles in exported APIs elsewhere in this module are expressed in
// degrees unless a name says otherwise; this package is where the
// radian-facing math lives.
package units

import "math"

// Physical and geodetic constants. Orbital code uses the WGS-72 values
// that the SGP4 reference implementation is defined against; geodetic
// code (terminal positions) uses WGS-84.
const (
	// EarthRadiusKm is the WGS-72 equatorial Earth radius used by SGP4.
	EarthRadiusKm = 6378.135
	// EarthRadiusWGS84Km is the WGS-84 equatorial radius used for
	// geodetic terminal coordinates.
	EarthRadiusWGS84Km = 6378.137
	// EarthFlatteningWGS84 is the WGS-84 flattening factor.
	EarthFlatteningWGS84 = 1.0 / 298.257223563
	// MuEarth is the WGS-72 gravitational parameter, km^3/s^2.
	MuEarth = 398600.8
	// SpeedOfLightKmPerSec is the vacuum speed of light.
	SpeedOfLightKmPerSec = 299792.458
	// MinutesPerDay is the number of minutes in a day.
	MinutesPerDay = 1440.0
	// SecondsPerDay is the number of seconds in a day.
	SecondsPerDay = 86400.0
	// AUKm is one astronomical unit in kilometres.
	AUKm = 149597870.7
	// SunRadiusKm is the solar photospheric radius.
	SunRadiusKm = 696000.0
)

// Deg2Rad converts degrees to radians.
func Deg2Rad(deg float64) float64 { return deg * math.Pi / 180.0 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(rad float64) float64 { return rad * 180.0 / math.Pi }

// WrapDeg360 wraps an angle in degrees into [0, 360).
func WrapDeg360(deg float64) float64 {
	d := math.Mod(deg, 360.0)
	if d < 0 {
		d += 360.0
	}
	return d
}

// WrapRadTwoPi wraps an angle in radians into [0, 2π).
//
// Angles within one turn of the target range take a fast path that
// returns exactly what the math.Mod path does: Mod returns rad itself
// for |rad| < 2π, and rad − 2π for rad in [2π, 4π), a subtraction
// that is exact by Sterbenz's lemma. Every other input goes through
// Mod.
func WrapRadTwoPi(rad float64) float64 {
	const twoPi = 2 * math.Pi
	switch {
	case rad >= 0 && rad < twoPi:
		return rad
	case rad < 0 && rad > -twoPi:
		return rad + twoPi
	case rad >= twoPi && rad < 2*twoPi:
		return rad - twoPi
	}
	r := math.Mod(rad, twoPi)
	if r < 0 {
		r += twoPi
	}
	return r
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Vec3 is a 3-vector in kilometres (positions) or km/s (velocities).
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalized to length 1. The zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1.0 / n)
}
