package astro

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/units"
)

// Observe computes the look angles from an observer (geodetic) to a
// satellite position in ECEF km, building the observer afresh.
func Observe(obs Geodetic, satECEF units.Vec3) LookAngles {
	o := NewObserver(obs)
	return o.Observe(satECEF)
}

func TestGMSTKnownValue(t *testing.T) {
	// Vallado example 3-5: 1992 Aug 20 12:14 UT1 -> GMST 152.578787810 deg.
	tm := time.Date(1992, 8, 20, 12, 14, 0, 0, time.UTC)
	got := units.Rad2Deg(GMST(tm))
	if math.Abs(got-152.578787810) > 1e-4 {
		t.Errorf("GMST = %v deg, want 152.578787810", got)
	}
}

func TestGMSTIncreasesWithTime(t *testing.T) {
	t0 := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	g0 := GMST(t0)
	g1 := GMST(t0.Add(1 * time.Hour))
	// Sidereal rate is ~15.04 deg/hour.
	diff := units.Rad2Deg(units.WrapRadTwoPi(g1 - g0))
	if math.Abs(diff-15.041) > 0.01 {
		t.Errorf("sidereal advance over 1h = %v deg, want ~15.041", diff)
	}
}

func TestGeodeticECEFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		g := Geodetic{
			LatDeg: rng.Float64()*170 - 85,
			LonDeg: rng.Float64()*360 - 180,
			AltKm:  rng.Float64() * 1000,
		}
		back := ECEFToGeodetic(g.ToECEF())
		if math.Abs(back.LatDeg-g.LatDeg) > 1e-6 {
			t.Fatalf("lat %v -> %v", g.LatDeg, back.LatDeg)
		}
		if angularDistDeg(back.LonDeg, g.LonDeg) > 1e-6 {
			t.Fatalf("lon %v -> %v", g.LonDeg, back.LonDeg)
		}
		if math.Abs(back.AltKm-g.AltKm) > 1e-5 {
			t.Fatalf("alt %v -> %v", g.AltKm, back.AltKm)
		}
	}
}

func TestECEFEquator(t *testing.T) {
	g := Geodetic{LatDeg: 0, LonDeg: 0, AltKm: 0}
	p := g.ToECEF()
	if math.Abs(p.X-units.EarthRadiusWGS84Km) > 1e-6 || math.Abs(p.Y) > 1e-9 || math.Abs(p.Z) > 1e-9 {
		t.Errorf("equator/greenwich ECEF = %v", p)
	}
	g = Geodetic{LatDeg: 90, LonDeg: 0, AltKm: 0}
	p = g.ToECEF()
	// Polar radius b = a(1-f) ~ 6356.752 km.
	wantZ := units.EarthRadiusWGS84Km * (1 - units.EarthFlatteningWGS84)
	if math.Abs(p.Z-wantZ) > 1e-3 || math.Hypot(p.X, p.Y) > 1e-6 {
		t.Errorf("north pole ECEF = %v, want z=%v", p, wantZ)
	}
}

func TestObserveZenith(t *testing.T) {
	obs := Geodetic{LatDeg: 40, LonDeg: -90, AltKm: 0}
	obsECEF := obs.ToECEF()
	// Satellite directly overhead: along the local vertical. For the
	// ellipsoid, "up" differs slightly from the radial direction, so use
	// the geodetic normal by raising the altitude.
	up := Geodetic{LatDeg: 40, LonDeg: -90, AltKm: 550}
	la := Observe(obs, up.ToECEF())
	if math.Abs(la.ElevationDeg-90) > 0.01 {
		t.Errorf("zenith elevation = %v", la.ElevationDeg)
	}
	if math.Abs(la.RangeKm-550) > 1 {
		t.Errorf("zenith range = %v", la.RangeKm)
	}
	_ = obsECEF
}

func TestObserveNorthAzimuth(t *testing.T) {
	obs := Geodetic{LatDeg: 40, LonDeg: 0, AltKm: 0}
	// A point north of the observer at altitude.
	north := Geodetic{LatDeg: 45, LonDeg: 0, AltKm: 550}
	la := Observe(obs, north.ToECEF())
	if !(la.AzimuthDeg < 1 || la.AzimuthDeg > 359) {
		t.Errorf("azimuth to northern point = %v, want ~0", la.AzimuthDeg)
	}
	east := Geodetic{LatDeg: 40, LonDeg: 5, AltKm: 550}
	la = Observe(obs, east.ToECEF())
	if math.Abs(la.AzimuthDeg-90) > 3 {
		t.Errorf("azimuth to eastern point = %v, want ~90", la.AzimuthDeg)
	}
	south := Geodetic{LatDeg: 35, LonDeg: 0, AltKm: 550}
	la = Observe(obs, south.ToECEF())
	if math.Abs(la.AzimuthDeg-180) > 1 {
		t.Errorf("azimuth to southern point = %v, want ~180", la.AzimuthDeg)
	}
	west := Geodetic{LatDeg: 40, LonDeg: -5, AltKm: 550}
	la = Observe(obs, west.ToECEF())
	if math.Abs(la.AzimuthDeg-270) > 3 {
		t.Errorf("azimuth to western point = %v, want ~270", la.AzimuthDeg)
	}
}

func TestObserveBelowHorizon(t *testing.T) {
	obs := Geodetic{LatDeg: 0, LonDeg: 0, AltKm: 0}
	// A satellite on the opposite side of the Earth.
	anti := Geodetic{LatDeg: 0, LonDeg: 180, AltKm: 550}
	la := Observe(obs, anti.ToECEF())
	if la.ElevationDeg > -45 {
		t.Errorf("antipodal satellite elevation = %v, want strongly negative", la.ElevationDeg)
	}
}

func TestSunPositionDistance(t *testing.T) {
	for _, m := range []time.Month{time.January, time.April, time.July, time.October} {
		tm := time.Date(2023, m, 15, 0, 0, 0, 0, time.UTC)
		d := SunPositionECI(tm).Norm()
		if d < 0.975*units.AUKm || d > 1.025*units.AUKm {
			t.Errorf("%v: sun distance = %v km", m, d)
		}
	}
	// Earth is closest to the Sun in early January.
	dJan := SunPositionECI(time.Date(2023, 1, 3, 0, 0, 0, 0, time.UTC)).Norm()
	dJul := SunPositionECI(time.Date(2023, 7, 4, 0, 0, 0, 0, time.UTC)).Norm()
	if dJan >= dJul {
		t.Errorf("perihelion ordering wrong: Jan %v >= Jul %v", dJan, dJul)
	}
}

func TestSunDeclinationSeasons(t *testing.T) {
	// Summer solstice: declination ~ +23.4 deg.
	sun := SunPositionECI(time.Date(2023, 6, 21, 12, 0, 0, 0, time.UTC))
	dec := units.Rad2Deg(math.Asin(sun.Z / sun.Norm()))
	if math.Abs(dec-23.43) > 0.3 {
		t.Errorf("June declination = %v", dec)
	}
	sun = SunPositionECI(time.Date(2023, 12, 21, 12, 0, 0, 0, time.UTC))
	dec = units.Rad2Deg(math.Asin(sun.Z / sun.Norm()))
	if math.Abs(dec+23.43) > 0.3 {
		t.Errorf("December declination = %v", dec)
	}
	// Equinox: ~0.
	sun = SunPositionECI(time.Date(2023, 3, 20, 21, 0, 0, 0, time.UTC))
	dec = units.Rad2Deg(math.Asin(sun.Z / sun.Norm()))
	if math.Abs(dec) > 0.5 {
		t.Errorf("equinox declination = %v", dec)
	}
}

func TestIsSunlitGeometry(t *testing.T) {
	tm := time.Date(2023, 3, 20, 12, 0, 0, 0, time.UTC)
	sun := SunPositionECI(tm)
	sunDir := sun.Unit()

	// Satellite between Earth and Sun: sunlit.
	sat := sunDir.Scale(units.EarthRadiusKm + 550)
	if !IsSunlit(sat, tm) {
		t.Error("day-side satellite should be sunlit")
	}
	// Satellite directly behind Earth at LEO altitude: in umbra.
	sat = sunDir.Scale(-(units.EarthRadiusKm + 550))
	if IsSunlit(sat, tm) {
		t.Error("satellite in Earth shadow should be dark")
	}
	// Satellite behind Earth but displaced far off-axis: sunlit.
	perp := cross(sunDir, units.Vec3{Z: 1}).Unit()
	sat = sunDir.Scale(-(units.EarthRadiusKm + 550)).Add(perp.Scale(3 * units.EarthRadiusKm))
	if !IsSunlit(sat, tm) {
		t.Error("off-axis satellite should be sunlit")
	}
}

func TestSunlitFractionOfOrbit(t *testing.T) {
	// A satellite in a circular equatorial orbit at 550 km should be in
	// shadow for roughly 30-40% of the orbit near the equinox.
	tm := time.Date(2023, 3, 20, 12, 0, 0, 0, time.UTC)
	r := units.EarthRadiusKm + 550
	dark := 0
	n := 360
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * float64(i) / float64(n)
		sat := units.Vec3{X: r * math.Cos(th), Y: r * math.Sin(th), Z: 0}
		if !IsSunlit(sat, tm) {
			dark++
		}
	}
	frac := float64(dark) / float64(n)
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("dark fraction = %v, want ~0.3-0.4", frac)
	}
}

func TestSolarElevationDayNight(t *testing.T) {
	// Madrid at noon UTC should see the Sun up; at midnight down.
	madrid := Geodetic{LatDeg: 40.4, LonDeg: -3.7, AltKm: 0.65}
	day := SolarElevationDeg(madrid, time.Date(2023, 6, 15, 12, 0, 0, 0, time.UTC))
	night := SolarElevationDeg(madrid, time.Date(2023, 6, 15, 0, 0, 0, 0, time.UTC))
	if day < 30 {
		t.Errorf("noon solar elevation = %v", day)
	}
	if night > -10 {
		t.Errorf("midnight solar elevation = %v", night)
	}
}

func TestTEMEToECEFPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tm := time.Date(2023, 5, 1, 6, 30, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		p := units.Vec3{X: rng.NormFloat64() * 7000, Y: rng.NormFloat64() * 7000, Z: rng.NormFloat64() * 7000}
		q := FrameAt(tm).ToECEF(p)
		if math.Abs(q.Norm()-p.Norm()) > 1e-6*math.Max(p.Norm(), 1) {
			t.Fatalf("rotation changed norm: %v -> %v", p.Norm(), q.Norm())
		}
		if math.Abs(q.Z-p.Z) > 1e-9 {
			t.Fatalf("rotation changed Z: %v -> %v", p.Z, q.Z)
		}
	}
}

func TestNoonSunIsSouthAtNorthernLatitudes(t *testing.T) {
	// At local solar noon the sun sits due south for a mid-northern
	// observer. Iowa local noon ~ 18:06 UTC (lon -91.5).
	iowa := Geodetic{LatDeg: 41.66, LonDeg: -91.53, AltKm: 0.2}
	noonUTC := time.Date(2023, 3, 21, 18, 6, 0, 0, time.UTC)
	sun := SunPositionECEF(noonUTC)
	la := Observe(iowa, sun)
	if math.Abs(math.Remainder(la.AzimuthDeg-180, 360)) > 5 {
		t.Errorf("noon sun azimuth = %v, want ~180", la.AzimuthDeg)
	}
	// Equinox noon elevation ~ 90 - |lat|.
	if math.Abs(la.ElevationDeg-(90-41.66)) > 2 {
		t.Errorf("noon sun elevation = %v, want ~%v", la.ElevationDeg, 90-41.66)
	}
}

// refSunlit is an independent transcription of the conical-umbra
// geometry (the formula both astro.IsSunlit and the former
// constellation.sunlitGeocentric implemented before they were unified
// behind Shadow). The cross-check below keeps the shared Shadow
// implementation pinned to it bit for bit, so the geometry can never
// silently drift under refactoring.
func refSunlit(satECI, sun units.Vec3) bool {
	sunDir := sun.Unit()
	along := satECI.Dot(sunDir)
	if along >= 0 {
		return true
	}
	perp := satECI.Sub(sunDir.Scale(along)).Norm()
	sunDist := sun.Norm()
	alpha := math.Asin((units.SunRadiusKm - units.EarthRadiusKm) / sunDist)
	apexDist := units.EarthRadiusKm / math.Sin(alpha)
	behind := -along
	if behind >= apexDist {
		return true
	}
	return perp > (apexDist-behind)*math.Tan(alpha)
}

func TestShadowCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tm := range []time.Time{
		time.Date(2023, 3, 20, 12, 0, 0, 0, time.UTC),
		time.Date(2023, 6, 21, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 12, 21, 18, 30, 0, 0, time.UTC),
	} {
		sun := SunPositionECI(tm)
		sh := NewShadow(sun)
		for i := 0; i < 2000; i++ {
			// Random LEO-shell positions, including points near the shadow
			// axis where the day/night boundary is decided.
			r := units.EarthRadiusKm + 300 + rng.Float64()*1000
			theta := rng.Float64() * 2 * math.Pi
			z := 2*rng.Float64() - 1
			s := math.Sqrt(1 - z*z)
			sat := units.Vec3{X: r * s * math.Cos(theta), Y: r * s * math.Sin(theta), Z: r * z}
			want := refSunlit(sat, sun)
			if got := sh.Sunlit(sat); got != want {
				t.Fatalf("Shadow.Sunlit(%v) at %v = %v, reference = %v", sat, tm, got, want)
			}
			if got := IsSunlit(sat, tm); got != want {
				t.Fatalf("IsSunlit(%v) at %v = %v, reference = %v", sat, tm, got, want)
			}
		}
	}
}

// referenceTEMEToECEF is the TEME→ECEF position rotation written out in
// full at one instant, the oracle Frame must match bit for bit: GMST,
// then its cosine and sine, then the rotation about Z.
func referenceTEMEToECEF(pos units.Vec3, t time.Time) units.Vec3 {
	theta := GMST(t)
	c, s := math.Cos(theta), math.Sin(theta)
	return units.Vec3{X: c*pos.X + s*pos.Y, Y: -s*pos.X + c*pos.Y, Z: pos.Z}
}

func TestFrameMatchesTEMEToECEF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tm := range []time.Time{
		time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2023, 8, 14, 6, 45, 12, 0, time.UTC),
	} {
		f := FrameAt(tm)
		for i := 0; i < 500; i++ {
			pos := units.Vec3{X: rng.NormFloat64() * 7000, Y: rng.NormFloat64() * 7000, Z: rng.NormFloat64() * 7000}
			if got, want := f.ToECEF(pos), referenceTEMEToECEF(pos, tm); got != want {
				t.Fatalf("Frame.ToECEF diverged from the reference rotation: got %v, want %v", got, want)
			}
		}
	}
}

// angularDistDeg returns the smallest absolute separation between two
// angles in degrees, in [0, 180].
func angularDistDeg(a, b float64) float64 {
	return math.Abs(math.Remainder(a-b, 360))
}

// cross returns the cross product v×w.
func cross(v, w units.Vec3) units.Vec3 {
	return units.Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// ECEFToGeodetic converts an ECEF position to geodetic coordinates
// using Bowring's iterative method (converges in a few iterations for
// any LEO altitude).
func ECEFToGeodetic(p units.Vec3) Geodetic {
	a := units.EarthRadiusWGS84Km
	f := units.EarthFlatteningWGS84
	e2 := f * (2 - f)
	lon := math.Atan2(p.Y, p.X)
	r := math.Hypot(p.X, p.Y)
	lat := math.Atan2(p.Z, r*(1-e2)) // initial guess
	var alt float64
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n := a / math.Sqrt(1-e2*sinLat*sinLat)
		alt = r/math.Cos(lat) - n
		newLat := math.Atan2(p.Z, r*(1-e2*n/(n+alt)))
		if math.Abs(newLat-lat) < 1e-12 {
			lat = newLat
			break
		}
		lat = newLat
	}
	return Geodetic{
		LatDeg: units.Rad2Deg(lat),
		LonDeg: units.Rad2Deg(lon),
		AltKm:  alt,
	}
}

// SunPositionECEF returns the Sun position rotated into the
// Earth-fixed frame at time t.
func SunPositionECEF(t time.Time) units.Vec3 {
	return FrameAt(t).ToECEF(SunPositionECI(t))
}

// IsSunlit reports whether a satellite at the given ECI position (km)
// is illuminated by the Sun at time t, using a conical Earth shadow
// model (umbra only). Positions just inside the penumbra count as
// sunlit, matching the operational meaning ("solar panels produce
// power").
func IsSunlit(satECI units.Vec3, t time.Time) bool {
	sh := NewShadow(SunPositionECI(t))
	return sh.Sunlit(satECI)
}

// SolarElevationDeg returns the Sun's elevation angle above the local
// horizon for a geodetic observer.
func SolarElevationDeg(obs Geodetic, t time.Time) float64 {
	sunECEF := SunPositionECEF(t)
	return Observe(obs, sunECEF).ElevationDeg
}
