package geo

import (
	"math"
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

// excludedByBeltWalk is the reference exclusion test: its own walk of
// the sampled belt, independent of MinSeparationDeg.
func excludedByBeltWalk(g *GSOExclusion, azDeg, elevDeg float64) bool {
	if len(g.beltDirs) == 0 {
		return false
	}
	d := dirFromLook(astro.LookAngles{ElevationDeg: elevDeg, AzimuthDeg: azDeg})
	min := math.Pi
	for _, b := range g.beltDirs {
		if a := d.AngleBetween(b); a < min {
			min = a
		}
	}
	return units.Rad2Deg(min) < g.protectionDeg
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
