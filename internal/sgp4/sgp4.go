// Package sgp4 implements the near-earth SGP4 satellite propagator in
// the standard Vallado formulation (WGS-72 constants), taking mean
// elements from a two-line element set and producing position and
// velocity in the TEME frame.
//
// Scope: near-earth only. Satellites with orbital periods >= 225
// minutes need the deep-space extension (SDP4) and are rejected at
// construction. Every Starlink shell orbits in ~95 minutes, so the
// deep-space branch is deliberately out of scope for this
// reproduction; the constructor error keeps misuse loud.
//
// The propagator is immutable after construction and safe for
// concurrent use; Propagate allocates nothing and evaluates each
// transcendental once (math.Sincos for every sine/cosine pair).
package sgp4

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/tle"
	"repro/internal/units"
)

// Gravitational constants (WGS-72, the set SGP4 is defined against).
const (
	earthRadiusKm = 6378.135
	mu            = 398600.8 // km^3/s^2
	j2            = 0.001082616
	j3            = -0.00000253881
	j4            = -0.00000165597
)

var (
	xke   = 60.0 / math.Sqrt(earthRadiusKm*earthRadiusKm*earthRadiusKm/mu) // sqrt(GM) in (earth radii)^1.5/min
	j3oj2 = j3 / j2
	// vkmps converts canonical velocity units to km/s.
	vkmps = earthRadiusKm * xke / 60.0
)

// ErrDecayed is returned by Propagate when the mean orbit has decayed
// below the Earth's surface at the requested time.
var ErrDecayed = errors.New("sgp4: satellite has decayed")

// ErrDeepSpace is returned by New for element sets with periods >= 225
// minutes, which require the (unimplemented) deep-space corrections.
var ErrDeepSpace = errors.New("sgp4: deep-space elements not supported (period >= 225 min)")

// State is the propagated position (km) and velocity (km/s) in the
// true-equator mean-equinox (TEME) frame.
type State struct {
	Pos units.Vec3 // km, TEME
	Vel units.Vec3 // km/s, TEME
}

// Propagator holds the initialized SGP4 constants for one element set.
type Propagator struct {
	epoch time.Time

	// Recovered (un-Kozai'd) mean motion and semi-major axis.
	noUnkozai float64 // rad/min
	ao        float64 // earth radii

	// Orbital elements at epoch (radians, internal units).
	ecco  float64
	inclo float64
	nodeo float64
	argpo float64
	mo    float64
	bstar float64

	// Derived initialization constants.
	isimp                  bool
	cosio, sinio           float64
	x3thm1, x1mth2, x7thm1 float64
	c1, c4, c5             float64
	d2, d3, d4             float64
	t2cof, t3cof, t4cof    float64
	t5cof                  float64
	mdot, argpdot, nodedot float64
	nodecf                 float64
	omgcof, xmcof          float64
	eta, delmo, sinmao     float64
	aycof, xlcof           float64
}

// New initializes an SGP4 propagator from a parsed TLE.
func New(t *tle.TLE) (*Propagator, error) {
	if t.MeanMotion <= 0 {
		return nil, fmt.Errorf("sgp4: mean motion %v rev/day is not positive", t.MeanMotion)
	}
	periodMin := units.MinutesPerDay / t.MeanMotion
	if periodMin >= 225 {
		return nil, fmt.Errorf("%w: period %.1f min", ErrDeepSpace, periodMin)
	}
	if t.Eccentricity < 0 || t.Eccentricity >= 1 {
		return nil, fmt.Errorf("sgp4: eccentricity %v out of [0,1)", t.Eccentricity)
	}

	p := &Propagator{
		epoch: t.Epoch,
		ecco:  t.Eccentricity,
		inclo: units.Deg2Rad(t.InclinationDeg),
		nodeo: units.Deg2Rad(t.RAANDeg),
		argpo: units.Deg2Rad(t.ArgPerigeeDeg),
		mo:    units.Deg2Rad(t.MeanAnomalyDeg),
		bstar: t.BStar,
	}
	noKozai := t.MeanMotion * 2 * math.Pi / units.MinutesPerDay // rad/min

	// Recover the original (Brouwer) mean motion from the Kozai value.
	cosio := math.Cos(p.inclo)
	theta2 := cosio * cosio
	x3thm1 := 3*theta2 - 1
	eosq := p.ecco * p.ecco
	betao2 := 1 - eosq
	betao := math.Sqrt(betao2)

	ak := math.Pow(xke/noKozai, 2.0/3.0)
	d1 := 0.75 * j2 * x3thm1 / (betao * betao2)
	del := d1 / (ak * ak)
	adel := ak * (1 - del*del - del*(1.0/3.0+134.0*del*del/81.0))
	del = d1 / (adel * adel)
	p.noUnkozai = noKozai / (1 + del)
	p.ao = math.Pow(xke/p.noUnkozai, 2.0/3.0)

	sinio := math.Sin(p.inclo)
	po := p.ao * betao2
	posq := po * po
	pinvsq := 1 / posq
	rp := p.ao * (1 - p.ecco) // perigee radius, earth radii

	if (rp-1)*earthRadiusKm < 0 {
		return nil, fmt.Errorf("sgp4: perigee below the surface (%.1f km)", (rp-1)*earthRadiusKm)
	}

	p.cosio, p.sinio = cosio, sinio
	p.x3thm1 = x3thm1
	p.x1mth2 = 1 - theta2
	p.x7thm1 = 7*theta2 - 1

	// Drag coefficient setup. s4 and qzms24 follow the standard
	// perigee-dependent switch.
	perigeeKm := (rp - 1) * earthRadiusKm
	s4 := 78.0
	qzms24 := math.Pow((120.0-78.0)/earthRadiusKm, 4)
	if perigeeKm < 156 {
		s4 = perigeeKm - 78
		if perigeeKm < 98 {
			s4 = 20
		}
		qzms24 = math.Pow((120-s4)/earthRadiusKm, 4)
	}
	s4 = s4/earthRadiusKm + 1

	p.isimp = rp < 220.0/earthRadiusKm+1

	tsi := 1 / (p.ao - s4)
	p.eta = p.ao * p.ecco * tsi
	etasq := p.eta * p.eta
	eeta := p.ecco * p.eta
	psisq := math.Abs(1 - etasq)
	coef := qzms24 * math.Pow(tsi, 4)
	coef1 := coef / math.Pow(psisq, 3.5)
	c2 := coef1 * p.noUnkozai * (p.ao*(1+1.5*etasq+eeta*(4+etasq)) +
		0.375*j2*tsi/psisq*x3thm1*(8+3*etasq*(8+etasq)))
	p.c1 = p.bstar * c2
	var c3 float64
	if p.ecco > 1e-4 {
		c3 = -2 * coef * tsi * j3oj2 * p.noUnkozai * sinio / p.ecco
	}
	p.c4 = 2 * p.noUnkozai * coef1 * p.ao * betao2 *
		(p.eta*(2+0.5*etasq) + p.ecco*(0.5+2*etasq) -
			j2*tsi/(p.ao*psisq)*
				(-3*x3thm1*(1-2*eeta+etasq*(1.5-0.5*eeta))+
					0.75*p.x1mth2*(2*etasq-eeta*(1+etasq))*math.Cos(2*p.argpo)))
	p.c5 = 2 * coef1 * p.ao * betao2 * (1 + 2.75*(etasq+eeta) + eeta*etasq)

	theta4 := theta2 * theta2
	temp1 := 1.5 * j2 * pinvsq * p.noUnkozai
	temp2 := 0.5 * temp1 * j2 * pinvsq
	temp3 := -0.46875 * j4 * pinvsq * pinvsq * p.noUnkozai
	p.mdot = p.noUnkozai + 0.5*temp1*betao*x3thm1 +
		0.0625*temp2*betao*(13-78*theta2+137*theta4)
	p.argpdot = -0.5*temp1*(1-5*theta2) +
		0.0625*temp2*(7-114*theta2+395*theta4) +
		temp3*(3-36*theta2+49*theta4)
	xhdot1 := -temp1 * cosio
	p.nodedot = xhdot1 + (0.5*temp2*(4-19*theta2)+2*temp3*(3-7*theta2))*cosio
	p.omgcof = p.bstar * c3 * math.Cos(p.argpo)
	if p.ecco > 1e-4 {
		p.xmcof = -2.0 / 3.0 * coef * p.bstar / eeta
	}
	p.nodecf = 3.5 * betao2 * xhdot1 * p.c1
	p.t2cof = 1.5 * p.c1
	// Avoid division by zero for i = 180 deg.
	div := 1 + cosio
	if math.Abs(div) < 1.5e-12 {
		div = 1.5e-12
	}
	p.xlcof = -0.25 * j3oj2 * sinio * (3 + 5*cosio) / div
	p.aycof = -0.5 * j3oj2 * sinio
	p.delmo = math.Pow(1+p.eta*math.Cos(p.mo), 3)
	p.sinmao = math.Sin(p.mo)

	if !p.isimp {
		cc1sq := p.c1 * p.c1
		p.d2 = 4 * p.ao * tsi * cc1sq
		temp := p.d2 * tsi * p.c1 / 3
		p.d3 = (17*p.ao + s4) * temp
		p.d4 = 0.5 * temp * p.ao * tsi * (221*p.ao + 31*s4) * p.c1
		p.t3cof = p.d2 + 2*cc1sq
		p.t4cof = 0.25 * (3*p.d3 + p.c1*(12*p.d2+10*cc1sq))
		p.t5cof = 0.2 * (3*p.d4 + 12*p.c1*p.d3 + 6*p.d2*p.d2 +
			15*cc1sq*(2*p.d2+cc1sq))
	}
	return p, nil
}

// Epoch returns the element-set epoch the propagation time is measured
// from.
func (p *Propagator) Epoch() time.Time { return p.epoch }

// PropagateAt propagates to an absolute time.
func (p *Propagator) PropagateAt(t time.Time) (State, error) {
	return p.Propagate(t.Sub(p.epoch).Minutes())
}

// PropagateAtInto is PropagateAt writing the state into caller-owned
// scratch — the snapshot hot loop's entry point. On error the scratch
// is left untouched; on success it holds exactly what PropagateAt
// would have returned.
func (p *Propagator) PropagateAtInto(t time.Time, st *State) error {
	s, err := p.Propagate(t.Sub(p.epoch).Minutes())
	if err != nil {
		return err
	}
	*st = s
	return nil
}

// SpeedBoundKmS returns an upper bound, in km/s, on the speed of the
// satellite's Earth-fixed position over the minutes around t, or +Inf
// when the mean orbit at t has decayed. The bound uses the
// drag-decayed semi-major axis at t and the largest eccentricity the
// drag and the long-period J3 terms can reach.
func (p *Propagator) SpeedBoundKmS(t time.Time) float64 {
	ts := t.Sub(p.epoch).Minutes()
	tempa := 1 - p.c1*ts
	de := math.Abs(p.bstar * p.c4 * ts)
	if !p.isimp {
		tempa -= (p.d2 + (p.d3+p.d4*ts)*ts) * ts * ts
		de += 2 * math.Abs(p.bstar*p.c5)
	}
	if !(tempa > 0) {
		return math.Inf(1) // the mean orbit has decayed
	}
	am := p.ao * tempa * tempa
	em := p.ecco + de
	if !(em < 1) {
		return math.Inf(1)
	}
	return speedBound(am, em+math.Abs(p.aycof)/(am*(1-em*em)))
}

// pow15 returns math.Pow(x, 1.5) bit for bit, without Pow's Modf,
// Frexp and Ldexp bookkeeping. For y = 1.5 Pow computes
// Exp(0.5*Log(x)), multiplies it by x's mantissa and rescales by x's
// exponent; multiplying by x directly rounds the same product, and the
// rescale is exact while x and the result stay far from the subnormal
// and overflow ranges. Outside that range Pow itself answers.
func pow15(x float64) float64 {
	if x > 0x1p-600 && x < 0x1p600 {
		return math.Exp(0.5*math.Log(x)) * x
	}
	return math.Pow(x, 1.5)
}

// Propagate advances the mean elements tsince minutes past the epoch
// (negative values propagate backwards) and returns the osculating
// TEME state.
func (p *Propagator) Propagate(tsince float64) (State, error) {
	t := tsince

	// Secular gravity and drag.
	xmdf := p.mo + p.mdot*t
	argpdf := p.argpo + p.argpdot*t
	nodedf := p.nodeo + p.nodedot*t
	argpm := argpdf
	mm := xmdf
	t2 := t * t
	nodem := nodedf + p.nodecf*t2
	tempa := 1 - p.c1*t
	tempe := p.bstar * p.c4 * t
	templ := p.t2cof * t2

	if !p.isimp {
		delomg := p.omgcof * t
		// x*x*x is Pow(x, 3) bit for bit: Pow multiplies the same
		// mantissas and rescales by a power of two, which is exact. The
		// conversion rounds the cube before the subtraction, as the call
		// did, so no platform fuses the two into a multiply-add.
		x := 1 + p.eta*math.Cos(xmdf)
		delm := p.xmcof * (float64(x*x*x) - p.delmo)
		temp := delomg + delm
		mm = xmdf + temp
		argpm = argpdf - temp
		t3 := t2 * t
		t4 := t3 * t
		tempa = tempa - p.d2*t2 - p.d3*t3 - p.d4*t4
		tempe += p.bstar * p.c5 * (math.Sin(mm) - p.sinmao)
		templ += p.t3cof*t3 + t4*(p.t4cof+t*p.t5cof)
	}

	// p.ao is (xke/noUnkozai)^(2/3), the same Pow New evaluates, so
	// reusing it is bit-identical and saves one Pow per call.
	am := p.ao * tempa * tempa
	nm := xke / pow15(am)
	em := p.ecco - tempe
	if em >= 1.0 || em < -0.001 {
		return State{}, fmt.Errorf("sgp4: mean eccentricity %v out of range at t=%v min", em, t)
	}
	if em < 1e-6 {
		em = 1e-6
	}
	mm += p.noUnkozai * templ
	xlm := mm + argpm + nodem
	nodem = units.WrapRadTwoPi(nodem)
	argpm = units.WrapRadTwoPi(argpm)
	xlm = units.WrapRadTwoPi(xlm)
	mm = units.WrapRadTwoPi(xlm - argpm - nodem)

	// Long-period periodics.
	sinip, cosip := p.sinio, p.cosio
	sinargp, cosargp := math.Sincos(argpm)
	axnl := em * cosargp
	temp := 1 / (am * (1 - em*em))
	aynl := em*sinargp + temp*p.aycof
	xl := mm + argpm + nodem + temp*p.xlcof*axnl

	// Kepler's equation for the longitude-form anomaly.
	u := units.WrapRadTwoPi(xl - nodem)
	eo1 := u
	var sineo1, coseo1 float64
	for ktr := 0; ktr < 10; ktr++ {
		sineo1, coseo1 = math.Sincos(eo1)
		tem5 := (u - aynl*coseo1 + axnl*sineo1 - eo1) /
			(1 - coseo1*axnl - sineo1*aynl)
		if math.Abs(tem5) >= 0.95 {
			if tem5 > 0 {
				tem5 = 0.95
			} else {
				tem5 = -0.95
			}
		}
		eo1 += tem5
		if math.Abs(tem5) < 1e-12 {
			break
		}
	}

	// Short-period preliminary quantities.
	ecose := axnl*coseo1 + aynl*sineo1
	esine := axnl*sineo1 - aynl*coseo1
	el2 := axnl*axnl + aynl*aynl
	pl := am * (1 - el2)
	if pl < 0 {
		return State{}, fmt.Errorf("sgp4: semi-latus rectum %v negative at t=%v min", pl, t)
	}
	rl := am * (1 - ecose)
	rdotl := math.Sqrt(am) * esine / rl
	rvdotl := math.Sqrt(pl) / rl
	betal := math.Sqrt(1 - el2)
	temp = esine / (1 + betal)
	sinu := am / rl * (sineo1 - aynl - axnl*temp)
	cosu := am / rl * (coseo1 - axnl + aynl*temp)
	su := math.Atan2(sinu, cosu)
	sin2u := (cosu + cosu) * sinu
	cos2u := 1 - 2*sinu*sinu
	temp = 1 / pl
	temp1 := 0.5 * j2 * temp
	temp2 := temp1 * temp

	// Short-period periodics.
	mrt := rl*(1-1.5*temp2*betal*p.x3thm1) + 0.5*temp1*p.x1mth2*cos2u
	su -= 0.25 * temp2 * p.x7thm1 * sin2u
	xnode := nodem + 1.5*temp2*cosip*sin2u
	xinc := p.inclo + 1.5*temp2*cosip*sinip*cos2u
	mvt := rdotl - nm*temp1*p.x1mth2*sin2u/xke
	rvdot := rvdotl + nm*temp1*(p.x1mth2*cos2u+1.5*p.x3thm1)/xke

	// Orientation vectors and state.
	sinsu, cossu := math.Sincos(su)
	snod, cnod := math.Sincos(xnode)
	sini, cosi := math.Sincos(xinc)
	xmx := -snod * cosi
	xmy := cnod * cosi
	ux := xmx*sinsu + cnod*cossu
	uy := xmy*sinsu + snod*cossu
	uz := sini * sinsu
	vx := xmx*cossu - cnod*sinsu
	vy := xmy*cossu - snod*sinsu
	vz := sini * cossu

	if mrt < 1 {
		return State{}, fmt.Errorf("%w (mrt=%v at t=%v min)", ErrDecayed, mrt, t)
	}

	return State{
		Pos: units.Vec3{
			X: mrt * ux * earthRadiusKm,
			Y: mrt * uy * earthRadiusKm,
			Z: mrt * uz * earthRadiusKm,
		},
		Vel: units.Vec3{
			X: (mvt*ux + rvdot*vx) * vkmps,
			Y: (mvt*uy + rvdot*vy) * vkmps,
			Z: (mvt*uz + rvdot*vz) * vkmps,
		},
	}, nil
}
