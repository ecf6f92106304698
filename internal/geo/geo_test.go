package geo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/astro"
	"repro/internal/units"
)

func TestStudyVantagePoints(t *testing.T) {
	vps := StudyVantagePoints()
	if len(vps) != 4 {
		t.Fatalf("got %d vantage points", len(vps))
	}
	names := map[string]bool{}
	for _, vp := range vps {
		names[vp.Name] = true
		if vp.Location.LatDeg < 40 {
			t.Errorf("%s: latitude %v, the paper's sites are all above 40N", vp.Name, vp.Location.LatDeg)
		}
	}
	for _, want := range []string{"Iowa", "New York", "Madrid", "Washington"} {
		if !names[want] {
			t.Errorf("missing vantage point %q", want)
		}
	}
	ny, err := VantagePointByName("New York")
	if err != nil {
		t.Fatal(err)
	}
	if ny.Mask == nil {
		t.Error("New York should carry the NW tree mask")
	}
	if _, err := VantagePointByName("Atlantis"); err == nil {
		t.Error("expected error for unknown site")
	}
}

func TestMaskBlocked(t *testing.T) {
	m := NewMask([]MaskSector{{AzFromDeg: 270, AzToDeg: 360, MinElevDeg: 55}})
	cases := []struct {
		az, el  float64
		blocked bool
	}{
		{300, 30, true},   // inside wedge, low
		{300, 60, false},  // inside wedge, above min elev
		{200, 30, false},  // outside wedge
		{359, 54.9, true}, // boundary
		{0, 30, true},     // 0 == 360 wraps into sector
		{10, 30, false},
	}
	for _, c := range cases {
		if got := m.Blocked(c.az, c.el); got != c.blocked {
			t.Errorf("Blocked(%v,%v) = %v, want %v", c.az, c.el, got, c.blocked)
		}
	}
}

func TestMaskWrapSector(t *testing.T) {
	m := NewMask([]MaskSector{{AzFromDeg: 350, AzToDeg: 20, MinElevDeg: 40}})
	if !m.Blocked(5, 30) || !m.Blocked(355, 30) {
		t.Error("wrap-around sector should block both sides of north")
	}
	if m.Blocked(180, 30) {
		t.Error("south should not be blocked")
	}
}

func TestNilMaskBlocksNothing(t *testing.T) {
	var m *Mask
	if m.Blocked(100, 5) {
		t.Error("nil mask blocked")
	}
}

func TestGSOExclusionNorthernSite(t *testing.T) {
	// For a site above 40N, the GSO belt sits to the south at moderate
	// elevation. Directions toward the southern belt must be excluded;
	// the northern sky must be clear.
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	g := NewGSOExclusion(iowa, 0)

	// Belt elevation at due south for lat 41.66: roughly 41-42 deg.
	if !g.Excluded(180, 40) {
		t.Error("due-south mid-elevation direction should be excluded")
	}
	if g.Excluded(0, 40) {
		t.Error("due-north direction should not be excluded")
	}
	if g.Excluded(180, 85) {
		t.Error("near-zenith should not be excluded at 41N")
	}
}

func TestGSOExclusionSeparationMonotone(t *testing.T) {
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	g := NewGSOExclusion(iowa, 0)
	// Separation from the belt grows as we move up from the belt
	// elevation toward zenith at azimuth 180.
	s40 := g.MinSeparationDeg(180, 40)
	s60 := g.MinSeparationDeg(180, 60)
	s85 := g.MinSeparationDeg(180, 85)
	if !(s40 < s60 && s60 < s85) {
		t.Errorf("separations not monotone: %v %v %v", s40, s60, s85)
	}
}

func TestGSOBeltElevationSanity(t *testing.T) {
	// The GSO belt's maximum elevation from latitude L is roughly
	// 90 - L - ~7 deg (parallax). For Iowa (41.7N) that's ~42 deg: the
	// separation at (180, 42) should be near zero.
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	g := NewGSOExclusion(iowa, 0)
	min := math.Inf(1)
	for el := 0.0; el < 90; el += 0.5 {
		if s := g.MinSeparationDeg(180, el); s < min {
			min = s
		}
	}
	if min > 1.5 {
		t.Errorf("belt never approached due-south sky: min separation %v", min)
	}
}

func TestGSOExclusionForcesHighPointing(t *testing.T) {
	// The paper's rationale: at >40N the exclusion zone forces terminals
	// to point higher than the 25 deg minimum. Verify that a band of
	// southern sky at low-to-mid elevation is excluded while high
	// elevations stay usable.
	ny := astro.Geodetic{LatDeg: 42.444, LonDeg: -76.501, AltKm: 0.25}
	g := NewGSOExclusion(ny, 0)
	excludedLow := 0
	totalLow := 0
	for az := 120.0; az <= 240; az += 10 {
		for el := 25.0; el <= 45; el += 5 {
			totalLow++
			if g.Excluded(az, el) {
				excludedLow++
			}
		}
	}
	if frac := float64(excludedLow) / float64(totalLow); frac < 0.5 {
		t.Errorf("only %.0f%% of low southern sky excluded, want most", frac*100)
	}
	for az := 0.0; az < 360; az += 30 {
		if g.Excluded(az, 88) {
			t.Errorf("zenith-adjacent direction az=%v excluded", az)
		}
	}
}

func TestGSOExclusionCustomAngle(t *testing.T) {
	iowa := astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.2}
	narrow := NewGSOExclusion(iowa, 2)
	wide := NewGSOExclusion(iowa, 30)
	// A direction 10 deg above the belt: excluded by the wide zone only.
	if narrow.Excluded(180, 52) {
		t.Error("narrow zone should not exclude 10 deg off the belt")
	}
	if !wide.Excluded(180, 52) {
		t.Error("wide zone should exclude 10 deg off the belt")
	}
}

// angleBetween returns the angle between v and w in radians, in
// [0, π], 0 when either is the zero vector.
func angleBetween(v, w units.Vec3) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	c := units.Clamp(v.Dot(w)/(nv*nw), -1, 1)
	return math.Acos(c)
}

// minSeparationByWalk is the belt walk MinSeparationDeg replaced, kept
// as its bit-identity oracle: the angle to every belt point, two norms
// and an Acos each, and the smallest of them.
func minSeparationByWalk(g *GSOExclusion, azDeg, elevDeg float64) float64 {
	if len(g.beltDirs) == 0 {
		return math.Inf(1)
	}
	d := dirFromLook(astro.LookAngles{ElevationDeg: elevDeg, AzimuthDeg: azDeg})
	min := math.Pi
	for _, b := range g.beltDirs {
		if a := angleBetween(d, b); a < min {
			min = a
		}
	}
	return units.Rad2Deg(min)
}

// excludedByBeltWalk is the reference exclusion test: the oracle walk
// of the sampled belt, independent of MinSeparationDeg.
func excludedByBeltWalk(g *GSOExclusion, azDeg, elevDeg float64) bool {
	return minSeparationByWalk(g, azDeg, elevDeg) < g.protectionDeg
}

// gsoSites are the study and southern sites plus a polar site that
// sees no belt point.
func gsoSites() []VantagePoint {
	sites := append(StudyVantagePoints(), SouthernVantagePoints()...)
	return append(sites, VantagePoint{Name: "polar", Location: astro.Geodetic{LatDeg: 85, LonDeg: 20}})
}

// beltLook returns the look angles of g's i-th belt point.
func beltLook(g *GSOExclusion, i int) (azDeg, elevDeg float64) {
	b := g.beltDirs[i]
	return units.WrapDeg360(units.Rad2Deg(math.Atan2(b.X, b.Y))), units.Rad2Deg(math.Asin(units.Clamp(b.Z, -1, 1)))
}

// sameSeparation reports whether MinSeparationDeg and the oracle walk
// agree bit for bit at (az, el).
func sameSeparation(g *GSOExclusion, azDeg, elevDeg float64) (got, want float64, ok bool) {
	got, want = g.MinSeparationDeg(azDeg, elevDeg), minSeparationByWalk(g, azDeg, elevDeg)
	return got, want, math.Float64bits(got) == math.Float64bits(want)
}

// TestMinSeparationMatchesWalk pins MinSeparationDeg bit for bit to
// the belt walk it replaced: on a 1° sky grid, at 20,000 random
// directions and at every belt point itself (separation 0 up to
// rounding), at every site, including the polar one that sees no belt.
func TestMinSeparationMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, vp := range gsoSites() {
		g := NewGSOExclusion(vp.Location, 0)
		check := func(az, el float64) {
			if got, want, ok := sameSeparation(g, az, el); !ok {
				t.Fatalf("%s az=%v el=%v: MinSeparationDeg %v, belt walk %v", vp.Name, az, el, got, want)
			}
		}
		for el := -10.0; el <= 90; el++ {
			for az := 0.0; az < 360; az++ {
				check(az, el)
			}
		}
		for i := 0; i < 20000; i++ {
			check(rng.Float64()*360, rng.Float64()*100-10)
		}
		for i := range g.beltDirs {
			az, el := beltLook(g, i)
			check(az, el)
			if sep := g.MinSeparationDeg(az, el); sep > 1e-6 {
				t.Fatalf("%s: belt point %d (az=%v el=%v) is %v° from the belt", vp.Name, i, az, el, sep)
			}
		}
	}
}

// FuzzMinSeparationMatchesWalk is TestMinSeparationMatchesWalk over
// arbitrary directions (non-finite ones included) and belt points.
func FuzzMinSeparationMatchesWalk(f *testing.F) {
	f.Add(uint8(0), 180.0, 40.0, int16(-1))
	f.Add(uint8(6), 0.0, 90.0, int16(-1))
	f.Add(uint8(2), 0.0, 0.0, int16(30))
	f.Add(uint8(len(gsoSites())-1), 10.0, 30.0, int16(0))
	sites := gsoSites()
	excl := make([]*GSOExclusion, len(sites))
	for i, vp := range sites {
		excl[i] = NewGSOExclusion(vp.Location, 0)
	}
	f.Fuzz(func(t *testing.T, site uint8, az, el float64, belt int16) {
		g := excl[int(site)%len(excl)]
		if belt >= 0 && len(g.beltDirs) > 0 {
			az, el = beltLook(g, int(belt)%len(g.beltDirs))
		}
		if got, want, ok := sameSeparation(g, az, el); !ok {
			t.Fatalf("az=%v el=%v: MinSeparationDeg %v, belt walk %v", az, el, got, want)
		}
	})
}

// TestGSOExcludedMatchesSeparation: over a 2° az × el grid of the
// sky, Excluded agrees with both the reference belt walk and the
// MinSeparationDeg < ProtectionDeg test the scheduler uses, at every
// study and southern site and at a polar site that sees no belt point.
func TestGSOExcludedMatchesSeparation(t *testing.T) {
	sites := append(StudyVantagePoints(), SouthernVantagePoints()...)
	sites = append(sites, VantagePoint{Name: "polar", Location: astro.Geodetic{LatDeg: 85, LonDeg: 20}})
	for _, vp := range sites {
		g := NewGSOExclusion(vp.Location, 0)
		if vp.Name == "polar" && len(g.beltDirs) != 0 {
			t.Fatalf("polar site sees %d belt points, want none", len(g.beltDirs))
		}
		excluded := 0
		for el := 0.0; el <= 90; el += 2 {
			for az := 0.0; az < 360; az += 2 {
				got := g.Excluded(az, el)
				if want := excludedByBeltWalk(g, az, el); got != want {
					t.Fatalf("%s az=%v el=%v: Excluded %v, belt walk %v", vp.Name, az, el, got, want)
				}
				sep := g.MinSeparationDeg(az, el)
				if want := sep < g.ProtectionDeg(); got != want {
					t.Fatalf("%s az=%v el=%v: Excluded %v, separation %v° vs %v°", vp.Name, az, el, got, sep, g.ProtectionDeg())
				}
				if len(g.beltDirs) == 0 && !math.IsInf(sep, 1) {
					t.Fatalf("%s: separation %v with no belt in view, want +Inf", vp.Name, sep)
				}
				if got {
					excluded++
				}
			}
		}
		if (excluded > 0) != (len(g.beltDirs) > 0) {
			t.Errorf("%s: %d excluded grid points with %d belt points in view", vp.Name, excluded, len(g.beltDirs))
		}
	}
}
