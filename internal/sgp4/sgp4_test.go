package sgp4

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/tle"
	"repro/internal/units"
)

// mustTLE builds a TLE from elements without going through the text
// format.
func mustTLE(incl, raan, ecc, argp, ma, mm, bstar float64) *tle.TLE {
	return &tle.TLE{
		CatalogNum:     44714,
		IntlDesig:      "19074A",
		Epoch:          time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC),
		BStar:          bstar,
		InclinationDeg: incl,
		RAANDeg:        raan,
		Eccentricity:   ecc,
		ArgPerigeeDeg:  argp,
		MeanAnomalyDeg: ma,
		MeanMotion:     mm,
	}
}

// starlinkTLE is a typical Starlink shell-1 element set: 53 deg, 550 km
// (mean motion ~15.06 rev/day).
func starlinkTLE() *tle.TLE {
	return mustTLE(53.05, 120.0, 0.0001, 90.0, 0.0, 15.06, 0.0001)
}

func TestNewRejectsDeepSpace(t *testing.T) {
	geo := mustTLE(0.05, 0, 0.0002, 0, 0, 1.0027, 0) // geostationary
	if _, err := New(geo); !errors.Is(err, ErrDeepSpace) {
		t.Fatalf("err = %v, want ErrDeepSpace", err)
	}
}

func TestNewRejectsBadEcc(t *testing.T) {
	bad := starlinkTLE()
	bad.Eccentricity = 1.5
	if _, err := New(bad); err == nil {
		t.Fatal("expected error for hyperbolic eccentricity")
	}
}

func TestPropagateAltitudeAndSpeed(t *testing.T) {
	p, err := New(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	for _, min := range []float64{0, 10, 47.8, 95.6, 500, 1440} {
		st, err := p.Propagate(min)
		if err != nil {
			t.Fatalf("t=%v: %v", min, err)
		}
		alt := st.Pos.Norm() - units.EarthRadiusKm
		if alt < 520 || alt > 580 {
			t.Errorf("t=%v min: altitude %v km, want ~550", min, alt)
		}
		speed := st.Vel.Norm()
		if speed < 7.4 || speed > 7.8 {
			t.Errorf("t=%v min: speed %v km/s, want ~7.6", min, speed)
		}
	}
}

func TestPropagatePeriod(t *testing.T) {
	p, err := New(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	// One nodal period later the satellite should be near (not exactly
	// at, due to J2 precession) its starting point.
	period := units.MinutesPerDay / 15.06
	s0, err := p.Propagate(0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.Propagate(period)
	if err != nil {
		t.Fatal(err)
	}
	sep := s0.Pos.Sub(s1.Pos).Norm()
	if sep > 250 {
		t.Errorf("separation after one period = %v km, want < 250 (J2 drift only)", sep)
	}
	// Half a period later it should be roughly on the opposite side.
	sh, err := p.Propagate(period / 2)
	if err != nil {
		t.Fatal(err)
	}
	if ang := angleBetween(s0.Pos, sh.Pos); ang < 2.8 {
		t.Errorf("angle after half period = %v rad, want ~pi", ang)
	}
}

func TestPropagateInclinationBound(t *testing.T) {
	// Maximum |latitude| of the ground track equals the inclination for
	// a prograde orbit. Equivalently max |z|/|r| = sin(incl).
	p, err := New(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	maxZr := 0.0
	for min := 0.0; min < 200; min += 0.5 {
		st, err := p.Propagate(min)
		if err != nil {
			t.Fatal(err)
		}
		zr := math.Abs(st.Pos.Z) / st.Pos.Norm()
		if zr > maxZr {
			maxZr = zr
		}
	}
	want := math.Sin(units.Deg2Rad(53.05))
	if math.Abs(maxZr-want) > 0.01 {
		t.Errorf("max |z|/|r| = %v, want %v", maxZr, want)
	}
}

func TestPropagateVelocityConsistency(t *testing.T) {
	// Finite-difference the position; it must match the reported
	// velocity closely.
	p, err := New(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	const h = 0.001 // minutes
	for _, min := range []float64{5, 50, 500} {
		a, err1 := p.Propagate(min - h)
		b, err2 := p.Propagate(min + h)
		c, err3 := p.Propagate(min)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		fd := b.Pos.Sub(a.Pos).Scale(1 / (2 * h * 60)) // km/s
		if diff := fd.Sub(c.Vel).Norm(); diff > 0.002 {
			t.Errorf("t=%v: |fd - vel| = %v km/s", min, diff)
		}
	}
}

func TestPropagateRAANRegression(t *testing.T) {
	// For a prograde orbit the node regresses (moves westward):
	// check the longitude of the ascending-node crossing drifts in the
	// expected direction over a day (~ -5 deg/day for 53 deg / 550 km).
	p, err := New(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	node0 := ascendingNodeRA(t, p, 0)
	node1 := ascendingNodeRA(t, p, 1440)
	drift := math.Remainder(node1-node0, 360)
	if drift > -3 || drift < -8 {
		t.Errorf("nodal drift = %v deg/day, want about -5", drift)
	}
}

// ascendingNodeRA finds the right ascension of an ascending equator
// crossing shortly after tsince.
func ascendingNodeRA(t *testing.T, p *Propagator, tsince float64) float64 {
	t.Helper()
	prev, err := p.Propagate(tsince)
	if err != nil {
		t.Fatal(err)
	}
	for min := tsince + 0.5; min < tsince+200; min += 0.5 {
		cur, err := p.Propagate(min)
		if err != nil {
			t.Fatal(err)
		}
		if prev.Pos.Z < 0 && cur.Pos.Z >= 0 {
			return units.WrapDeg360(units.Rad2Deg(math.Atan2(cur.Pos.Y, cur.Pos.X)))
		}
		prev = cur
	}
	t.Fatal("no ascending node found")
	return 0
}

func TestDragLowersOrbit(t *testing.T) {
	// With a strongly positive B*, the mean semi-major axis decays:
	// after several days the orbit-averaged radius is smaller.
	hi := starlinkTLE()
	hi.BStar = 0.01
	p, err := New(hi)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(startMin float64) float64 {
		sum := 0.0
		n := 0
		for m := startMin; m < startMin+96; m += 1 {
			st, err := p.Propagate(m)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.Pos.Norm()
			n++
		}
		return sum / float64(n)
	}
	r0 := avg(0)
	r10 := avg(10 * 1440)
	if r10 >= r0 {
		t.Errorf("mean radius grew under drag: %v -> %v", r0, r10)
	}
}

func TestPropagateBackwards(t *testing.T) {
	p, err := New(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Propagate(-30)
	if err != nil {
		t.Fatalf("backward propagation: %v", err)
	}
	alt := st.Pos.Norm() - units.EarthRadiusKm
	if alt < 500 || alt > 600 {
		t.Errorf("backward altitude = %v", alt)
	}
}

func TestPropagateAtUsesEpoch(t *testing.T) {
	tl := starlinkTLE()
	p, err := New(tl)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := p.PropagateAt(tl.Epoch.Add(30 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Propagate(30)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Pos.Sub(s2.Pos).Norm() > 1e-9 {
		t.Error("PropagateAt disagrees with Propagate")
	}
}

func TestEccentricOrbitRadiusRange(t *testing.T) {
	// e=0.1: radius should swing between a(1-e) and a(1+e).
	ecc := mustTLE(63.4, 40, 0.1, 270, 0, 13.0, 0)
	p, err := New(ecc)
	if err != nil {
		t.Fatal(err)
	}
	minR, maxR := math.Inf(1), math.Inf(-1)
	for m := 0.0; m < 120; m += 0.25 {
		st, err := p.Propagate(m)
		if err != nil {
			t.Fatal(err)
		}
		r := st.Pos.Norm()
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	a := math.Pow(units.MuEarth*math.Pow(86400/(13.0*2*math.Pi), 2), 1.0/3.0)
	if math.Abs(minR-a*0.9)/a > 0.02 {
		t.Errorf("perigee radius %v, want ~%v", minR, a*0.9)
	}
	if math.Abs(maxR-a*1.1)/a > 0.02 {
		t.Errorf("apogee radius %v, want ~%v", maxR, a*1.1)
	}
}

func TestISSRealTLE(t *testing.T) {
	const l1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	const l2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
	parsed, err := tle.Parse(l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(parsed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Propagate(0)
	if err != nil {
		t.Fatal(err)
	}
	alt := st.Pos.Norm() - units.EarthRadiusKm
	// ISS altitude in 2008: ~340-360 km.
	if alt < 320 || alt > 380 {
		t.Errorf("ISS altitude = %v km", alt)
	}
	if sp := st.Vel.Norm(); sp < 7.6 || sp > 7.8 {
		t.Errorf("ISS speed = %v km/s", sp)
	}
}

func TestKeplerJ2MatchesSGP4Roughly(t *testing.T) {
	// The ablation baseline should track SGP4 to within tens of km over
	// a couple of hours for a near-circular orbit with small drag.
	tl := starlinkTLE()
	tl.BStar = 0
	p, err := New(tl)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKeplerJ2(tl)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []float64{0, 30, 120} {
		a, err1 := p.Propagate(m)
		b, err2 := k.Propagate(m)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sep := a.Pos.Sub(b.Pos).Norm()
		// The two models differ by short-period J2 terms (~10 km) plus
		// secular differences that grow slowly.
		if sep > 100 {
			t.Errorf("t=%v: SGP4 vs KeplerJ2 separation = %v km", m, sep)
		}
	}
}

func TestKeplerJ2AltitudeStable(t *testing.T) {
	k, err := NewKeplerJ2(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	for m := 0.0; m < 1440; m += 30 {
		st, err := k.Propagate(m)
		if err != nil {
			t.Fatal(err)
		}
		alt := st.Pos.Norm() - units.EarthRadiusKm
		if alt < 520 || alt > 580 {
			t.Errorf("t=%v: KeplerJ2 altitude %v", m, alt)
		}
	}
}

func TestAngularMomentumDirectionStable(t *testing.T) {
	// Orbit normal should stay near the initial normal over one orbit
	// (precession is slow).
	p, err := New(starlinkTLE())
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := p.Propagate(0)
	h0 := cross(s0.Pos, s0.Vel).Unit()
	for m := 1.0; m < 96; m += 5 {
		st, err := p.Propagate(m)
		if err != nil {
			t.Fatal(err)
		}
		h := cross(st.Pos, st.Vel).Unit()
		if ang := units.Rad2Deg(angleBetween(h0, h)); ang > 0.3 {
			t.Errorf("t=%v: orbit normal moved %v deg", m, ang)
		}
	}
}

func BenchmarkPropagate(b *testing.B) {
	p, err := New(starlinkTLE())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Propagate(float64(i % 1440)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeplerJ2(b *testing.B) {
	k, err := NewKeplerJ2(starlinkTLE())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := k.Propagate(float64(i % 1440)); err != nil {
			b.Fatal(err)
		}
	}
}

// referencePropagate is the SGP4 kernel as it stood before Propagate
// was rewritten to evaluate each transcendental once: a separate
// math.Sin and math.Cos per angle, math.Pow for the cube and the 1.5
// power, and the math.Mod angle wrap. It is the oracle Propagate must
// match bit for bit.
func referencePropagate(p *Propagator, tsince float64) (State, error) {
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
		delm := p.xmcof * (math.Pow(1+p.eta*math.Cos(xmdf), 3) - p.delmo)
		temp := delomg + delm
		mm = xmdf + temp
		argpm = argpdf - temp
		t3 := t2 * t
		t4 := t3 * t
		tempa = tempa - p.d2*t2 - p.d3*t3 - p.d4*t4
		tempe += p.bstar * p.c5 * (math.Sin(mm) - p.sinmao)
		templ += p.t3cof*t3 + t4*(p.t4cof+t*p.t5cof)
	}

	am := p.ao * tempa * tempa
	nm := xke / math.Pow(am, 1.5)
	em := p.ecco - tempe
	if em >= 1.0 || em < -0.001 {
		return State{}, fmt.Errorf("sgp4: mean eccentricity %v out of range at t=%v min", em, t)
	}
	if em < 1e-6 {
		em = 1e-6
	}
	mm += p.noUnkozai * templ
	xlm := mm + argpm + nodem
	nodem = wrapRadTwoPiMod(nodem)
	argpm = wrapRadTwoPiMod(argpm)
	xlm = wrapRadTwoPiMod(xlm)
	mm = wrapRadTwoPiMod(xlm - argpm - nodem)

	// Long-period periodics.
	sinip, cosip := p.sinio, p.cosio
	axnl := em * math.Cos(argpm)
	temp := 1 / (am * (1 - em*em))
	aynl := em*math.Sin(argpm) + temp*p.aycof
	xl := mm + argpm + nodem + temp*p.xlcof*axnl

	// Kepler's equation for the longitude-form anomaly.
	u := wrapRadTwoPiMod(xl - nodem)
	eo1 := u
	var sineo1, coseo1 float64
	for ktr := 0; ktr < 10; ktr++ {
		sineo1 = math.Sin(eo1)
		coseo1 = math.Cos(eo1)
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
	sinsu, cossu := math.Sin(su), math.Cos(su)
	snod, cnod := math.Sin(xnode), math.Cos(xnode)
	sini, cosi := math.Sin(xinc), math.Cos(xinc)
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

// wrapRadTwoPiMod is units.WrapRadTwoPi as it stood before its fast
// paths: every input through math.Mod.
func wrapRadTwoPiMod(rad float64) float64 {
	r := math.Mod(rad, 2*math.Pi)
	if r < 0 {
		r += 2 * math.Pi
	}
	return r
}

// matchesReference propagates p to tsince with both Propagate and
// referencePropagate and reports any difference: in the bits of Pos
// and Vel, in whether an error occurred, in its text, or in whether it
// is ErrDecayed.
func matchesReference(p *Propagator, tsince float64) error {
	got, gerr := p.Propagate(tsince)
	want, werr := referencePropagate(p, tsince)
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("t=%v min: error %v, reference error %v", tsince, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() || errors.Is(gerr, ErrDecayed) != errors.Is(werr, ErrDecayed) {
			return fmt.Errorf("t=%v min: error %q, reference error %q", tsince, gerr, werr)
		}
		return nil
	}
	if !sameBits(got.Pos, want.Pos) || !sameBits(got.Vel, want.Vel) {
		return fmt.Errorf("t=%v min: state %+v, reference %+v", tsince, got, want)
	}
	return nil
}

func sameBits(a, b units.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func TestPow15MatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 0x1p-600, 0x1p600,
		math.Nextafter(0x1p-600, 1), math.Nextafter(0x1p600, 0), 0x1p-1074, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 20000; i++ {
		xs = append(xs, math.Ldexp(1+rng.Float64(), rng.Intn(2200)-1100), 0.8+rng.Float64()*0.6)
	}
	for _, x := range xs {
		got, want := pow15(x), math.Pow(x, 1.5)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("pow15(%v) = %v, math.Pow = %v", x, got, want)
		}
	}
}

// angleBetween returns the angle between v and w in radians, in
// [0, π], 0 when either is the zero vector.
func angleBetween(v, w units.Vec3) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return math.Acos(units.Clamp(v.Dot(w)/(nv*nw), -1, 1))
}

// cross returns the cross product v×w.
func cross(v, w units.Vec3) units.Vec3 {
	return units.Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// TestSpeedBoundCoversState: both propagators' SpeedBoundKmS is at
// least the Earth-fixed speed bound of every state they return, |v| +
// ω|r| (the inertial speed plus the Earth's rotation carrying the
// position), sampled each minute over four hours at the epoch and ten
// days on, for a Starlink orbit, the same orbit under heavy drag, an
// eccentric orbit and the ISS; and it stays within 10% of the fastest
// of them, so it is not vacuous. A mean orbit that has decayed gives
// +Inf.
func TestSpeedBoundCoversState(t *testing.T) {
	draggy := starlinkTLE()
	draggy.BStar = 0.01
	iss, err := tle.Parse(
		"1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
		"2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537")
	if err != nil {
		t.Fatal(err)
	}
	for name, el := range map[string]*tle.TLE{
		"starlink": starlinkTLE(), "drag": draggy, "eccentric": mustTLE(63.4, 40, 0.1, 270, 0, 13.0, 0), "iss": iss,
	} {
		sgp, err := New(el)
		if err != nil {
			t.Fatal(err)
		}
		kep, err := NewKeplerJ2(el)
		if err != nil {
			t.Fatal(err)
		}
		for _, eph := range []interface {
			Ephemeris
			SpeedBoundKmS(time.Time) float64
		}{sgp, kep} {
			for _, start := range []float64{0, 10 * 1440} {
				fastest, loosest := 0.0, 0.0
				for m := start; m < start+240; m++ {
					at := el.Epoch.Add(time.Duration(m * float64(time.Minute)))
					st, err := eph.PropagateAt(at)
					if err != nil {
						t.Fatal(err)
					}
					v := st.Vel.Norm() + earthRotationRadS*st.Pos.Norm()
					bound := eph.SpeedBoundKmS(at)
					if bound < v {
						t.Fatalf("%s %T at %v min: bound %v km/s under the state's Earth-fixed speed bound %v", name, eph, m, bound, v)
					}
					fastest, loosest = math.Max(fastest, v), math.Max(loosest, bound)
				}
				if loosest > 1.1*fastest {
					t.Errorf("%s %T from %v min: bound up to %v km/s, fastest state %v", name, eph, start, loosest, fastest)
				}
			}
		}
	}
	p, err := New(draggy)
	if err != nil {
		t.Fatal(err)
	}
	if b := p.SpeedBoundKmS(draggy.Epoch.AddDate(10, 0, 0)); !math.IsInf(b, 1) {
		t.Errorf("decayed orbit: bound %v, want +Inf", b)
	}
}

// TestRadiusBoundCoversState: both propagators' RadiusBoundKm brackets
// the radius of every state they return, sampled each minute over four
// hours at the epoch and ten days on, for a Starlink orbit, the same
// orbit under heavy drag, an eccentric orbit and the ISS; and the
// bracket is at most 20 km wider on either side than the radii the
// states reach, so it is not vacuous. An orbit that may have decayed
// gives 0, +Inf.
func TestRadiusBoundCoversState(t *testing.T) {
	draggy := starlinkTLE()
	draggy.BStar = 0.01
	iss, err := tle.Parse(
		"1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
		"2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537")
	if err != nil {
		t.Fatal(err)
	}
	for name, el := range map[string]*tle.TLE{
		"starlink": starlinkTLE(), "drag": draggy, "eccentric": mustTLE(63.4, 40, 0.1, 270, 0, 13.0, 0), "iss": iss,
	} {
		sgp, err := New(el)
		if err != nil {
			t.Fatal(err)
		}
		kep, err := NewKeplerJ2(el)
		if err != nil {
			t.Fatal(err)
		}
		for _, eph := range []interface {
			Ephemeris
			RadiusBoundKm(time.Time) (float64, float64)
		}{sgp, kep} {
			for _, start := range []float64{0, 10 * 1440} {
				lowest, highest := math.Inf(1), 0.0
				loosestLo, loosestHi := math.Inf(1), 0.0
				for m := start; m < start+240; m++ {
					at := el.Epoch.Add(time.Duration(m * float64(time.Minute)))
					st, err := eph.PropagateAt(at)
					if err != nil {
						t.Fatal(err)
					}
					r := st.Pos.Norm()
					lo, hi := eph.RadiusBoundKm(at)
					if r < lo || r > hi {
						t.Fatalf("%s %T at %v min: radius %v km outside the bound [%v, %v]", name, eph, m, r, lo, hi)
					}
					lowest, highest = math.Min(lowest, r), math.Max(highest, r)
					loosestLo, loosestHi = math.Min(loosestLo, lo), math.Max(loosestHi, hi)
				}
				if lowest-loosestLo > 20 || loosestHi-highest > 20 {
					t.Errorf("%s %T from %v min: bound [%v, %v] km, states reach [%v, %v]", name, eph, start, loosestLo, loosestHi, lowest, highest)
				}
			}
		}
	}
	p, err := New(draggy)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := p.RadiusBoundKm(draggy.Epoch.AddDate(10, 0, 0)); lo != 0 || !math.IsInf(hi, 1) {
		t.Errorf("decayed orbit: bound [%v, %v], want [0, +Inf]", lo, hi)
	}
}
