package sgp4

import (
	"fmt"
	"math"
	"time"

	"repro/internal/tle"
	"repro/internal/units"
)

// KeplerJ2 is a deliberately simpler propagator used as the ablation
// baseline: two-body Keplerian motion plus J2 secular rates on RAAN,
// argument of perigee and mean anomaly, with no drag and no periodic
// corrections. It shares the TLE input so the two propagators can be
// swapped behind the Ephemeris interface.
type KeplerJ2 struct {
	epoch time.Time

	n     float64 // mean motion, rad/min
	a     float64 // semi-major axis, earth radii
	ecc   float64
	incl  float64
	node0 float64
	argp0 float64
	m0    float64

	nodeDot float64 // rad/min
	argpDot float64
	mDot    float64
}

// NewKeplerJ2 builds the baseline propagator from a TLE.
func NewKeplerJ2(t *tle.TLE) (*KeplerJ2, error) {
	if t.MeanMotion <= 0 {
		return nil, fmt.Errorf("sgp4: mean motion %v rev/day is not positive", t.MeanMotion)
	}
	k := &KeplerJ2{
		epoch: t.Epoch,
		n:     t.MeanMotion * 2 * math.Pi / units.MinutesPerDay,
		ecc:   t.Eccentricity,
		incl:  units.Deg2Rad(t.InclinationDeg),
		node0: units.Deg2Rad(t.RAANDeg),
		argp0: units.Deg2Rad(t.ArgPerigeeDeg),
		m0:    units.Deg2Rad(t.MeanAnomalyDeg),
	}
	k.a = math.Pow(xke/k.n, 2.0/3.0)
	p := k.a * (1 - k.ecc*k.ecc)
	cosi := math.Cos(k.incl)
	// Standard J2 secular rates.
	base := 1.5 * j2 * k.n / (p * p)
	k.nodeDot = -base * cosi
	k.argpDot = base * (2 - 2.5*math.Sin(k.incl)*math.Sin(k.incl))
	k.mDot = k.n // mean anomaly advances at the mean motion
	return k, nil
}

// Epoch returns the element-set epoch.
func (k *KeplerJ2) Epoch() time.Time { return k.epoch }

// PropagateAt propagates to an absolute time.
func (k *KeplerJ2) PropagateAt(t time.Time) (State, error) {
	return k.Propagate(t.Sub(k.epoch).Minutes())
}

// PropagateAtInto is PropagateAt writing into caller-owned scratch
// (see Propagator.PropagateAtInto).
func (k *KeplerJ2) PropagateAtInto(t time.Time, st *State) error {
	s, err := k.Propagate(t.Sub(k.epoch).Minutes())
	if err != nil {
		return err
	}
	*st = s
	return nil
}

// Propagate advances tsince minutes past the epoch.
func (k *KeplerJ2) Propagate(tsince float64) (State, error) {
	m := units.WrapRadTwoPi(k.m0 + k.mDot*tsince)
	node := units.WrapRadTwoPi(k.node0 + k.nodeDot*tsince)
	argp := units.WrapRadTwoPi(k.argp0 + k.argpDot*tsince)

	// Solve Kepler's equation by Newton iteration.
	e := m
	for i := 0; i < 12; i++ {
		d := (e - k.ecc*math.Sin(e) - m) / (1 - k.ecc*math.Cos(e))
		e -= d
		if math.Abs(d) < 1e-12 {
			break
		}
	}
	sinE, cosE := math.Sin(e), math.Cos(e)
	// True anomaly and radius.
	nu := math.Atan2(math.Sqrt(1-k.ecc*k.ecc)*sinE, cosE-k.ecc)
	r := k.a * (1 - k.ecc*cosE) // earth radii

	// Perifocal coordinates.
	cosnu, sinnu := math.Cos(nu), math.Sin(nu)
	p := k.a * (1 - k.ecc*k.ecc)
	rx := r * cosnu
	ry := r * sinnu
	// Velocity in perifocal frame (canonical units: earth radii/min via xke).
	vscale := xke / math.Sqrt(p)
	vxp := -vscale * sinnu
	vyp := vscale * (k.ecc + cosnu)

	// Rotate perifocal -> TEME via argp, incl, node.
	cw, sw := math.Cos(argp), math.Sin(argp)
	ci, si := math.Cos(k.incl), math.Sin(k.incl)
	cn, sn := math.Cos(node), math.Sin(node)

	r11 := cn*cw - sn*sw*ci
	r12 := -cn*sw - sn*cw*ci
	r21 := sn*cw + cn*sw*ci
	r22 := -sn*sw + cn*cw*ci
	r31 := sw * si
	r32 := cw * si

	pos := units.Vec3{
		X: (r11*rx + r12*ry) * earthRadiusKm,
		Y: (r21*rx + r22*ry) * earthRadiusKm,
		Z: (r31*rx + r32*ry) * earthRadiusKm,
	}
	vel := units.Vec3{
		X: (r11*vxp + r12*vyp) * earthRadiusKm / 60.0,
		Y: (r21*vxp + r22*vyp) * earthRadiusKm / 60.0,
		Z: (r31*vxp + r32*vyp) * earthRadiusKm / 60.0,
	}
	return State{Pos: pos, Vel: vel}, nil
}

// Ephemeris is the propagation interface shared by the full SGP4
// implementation and the KeplerJ2 ablation baseline.
type Ephemeris interface {
	Epoch() time.Time
	Propagate(tsinceMinutes float64) (State, error)
	PropagateAt(t time.Time) (State, error)
}

// ScratchEphemeris is the optional fast path of Ephemeris: propagators
// that can write the state into caller-owned scratch. Both built-in
// propagators implement it; injected test propagators need not. Batch
// sweeps (the constellation snapshot loop) devirtualize to the two
// concrete types rather than asserting this interface — passing the
// scratch pointer through an interface call would defeat escape
// analysis and put the scratch back on the heap — so the interface
// serves as the compile-time contract that both propagators keep
// offering the Into form.
type ScratchEphemeris interface {
	PropagateAtInto(t time.Time, st *State) error
}

// earthRotationRadS is the Earth's sidereal rotation rate, the rate of
// the TEME→Earth-fixed rotation.
const earthRotationRadS = 7.2921158553e-5

// speedBoundMargin covers what the mean elements leave out of a
// state's speed: the periodic perturbations, of order J2 ≈ 1e-3 in
// relative speed, and the drift of the elements within minutes.
const speedBoundMargin = 1.02

// speedBound bounds the Earth-fixed speed of a satellite on the orbit
// of semi-major axis a (earth radii) and eccentricity e: the inertial
// speed at perigee (vis-viva) plus the Earth's rotation carrying a
// point at apogee radius, with speedBoundMargin on both. Elements with
// no bound orbit give +Inf.
func speedBound(a, e float64) float64 {
	if !(a > 0) || !(e >= 0 && e < 1) {
		return math.Inf(1)
	}
	aKm := a * earthRadiusKm
	vPerigee := math.Sqrt(mu / aKm * (1 + e) / (1 - e))
	return speedBoundMargin * (vPerigee + earthRotationRadS*aKm*(1+e))
}

// SpeedBoundKmS returns an upper bound, in km/s, on the speed of the
// satellite's Earth-fixed position. The orbit has no drag, so the
// bound holds at every t.
func (k *KeplerJ2) SpeedBoundKmS(time.Time) float64 { return speedBound(k.a, k.ecc) }

// radiusRoundoff covers the rounding of a computed position's length
// against the exact radius a bound derives.
const radiusRoundoff = 1e-9

// RadiusBoundKm returns lo <= |PropagateAt(t).Pos| <= hi, in km: the
// perigee and apogee radii, which hold at every t.
func (k *KeplerJ2) RadiusBoundKm(time.Time) (lo, hi float64) {
	return k.a * (1 - k.ecc) * earthRadiusKm * (1 - radiusRoundoff), k.a * (1 + k.ecc) * earthRadiusKm * (1 + radiusRoundoff)
}

var (
	_ Ephemeris        = (*Propagator)(nil)
	_ Ephemeris        = (*KeplerJ2)(nil)
	_ ScratchEphemeris = (*Propagator)(nil)
	_ ScratchEphemeris = (*KeplerJ2)(nil)
)
