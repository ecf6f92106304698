package constellation

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/tle"
	"repro/internal/units"
)

// smallConfig keeps tests fast: one reduced shell.
func smallConfig() Config {
	return Config{
		Shells: []Shell{
			{Name: "mini", AltitudeKm: 550, InclinationDeg: 53, Planes: 12, SatsPerPlane: 10, PhasingF: 5},
		},
		Seed: 1,
	}
}

func TestNewCounts(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 120 {
		t.Fatalf("Len = %d, want 120", c.Len())
	}
	seen := map[int]bool{}
	for _, s := range c.Sats {
		if seen[s.ID] {
			t.Fatalf("duplicate catalog number %d", s.ID)
		}
		seen[s.ID] = true
		if s.Launch.IsZero() {
			t.Fatalf("satellite %d has no launch date", s.ID)
		}
		if c.ByID(s.ID) != s {
			t.Fatalf("ByID(%d) mismatch", s.ID)
		}
	}
}

func TestFullStarlinkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation build is slow")
	}
	c, err := New(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 72*22 + 72*22 + 36*20 + 6*58
	if c.Len() != want {
		t.Fatalf("Len = %d, want %d", c.Len(), want)
	}
}

func TestLaunchDatesSpanWindow(t *testing.T) {
	cfg := smallConfig()
	cfg.LaunchStart = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.LaunchEnd = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.BatchSize = 10
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var minD, maxD time.Time
	for i, s := range c.Sats {
		if i == 0 || s.Launch.Before(minD) {
			minD = s.Launch
		}
		if i == 0 || s.Launch.After(maxD) {
			maxD = s.Launch
		}
	}
	if minD.Year() != 2020 {
		t.Errorf("oldest launch %v, want 2020", minD)
	}
	if maxD.Year() != 2023 && !(maxD.Year() == 2022 && maxD.Month() == 12) {
		t.Errorf("newest launch %v, want near end of window", maxD)
	}
	// 120 sats / batch 10 => 12 distinct batches.
	batches := map[int]int{}
	for _, s := range c.Sats {
		batches[s.LaunchIdx]++
	}
	if len(batches) != 12 {
		t.Errorf("distinct batches = %d, want 12", len(batches))
	}
}

func TestLaunchWindowValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.LaunchStart = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.LaunchEnd = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for inverted launch window")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sats {
		if a.Sats[i].TLE.RAANDeg != b.Sats[i].TLE.RAANDeg ||
			a.Sats[i].Launch != b.Sats[i].Launch {
			t.Fatalf("satellite %d differs between identically seeded builds", i)
		}
	}
}

func TestMeanMotionMatchesAltitude(t *testing.T) {
	mm := meanMotionRevDay(550)
	// Published Starlink shell-1 mean motion ~15.05-15.07 rev/day.
	if mm < 15.0 || mm > 15.1 {
		t.Errorf("mean motion at 550 km = %v", mm)
	}
	mmISS := meanMotionRevDay(420)
	if mmISS < 15.4 || mmISS > 15.6 {
		t.Errorf("mean motion at 420 km = %v", mmISS)
	}
}

func TestFieldOfViewBasics(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	obs := astro.Geodetic{LatDeg: 41.66, LonDeg: -91.53, AltKm: 0.2} // Iowa
	when := c.Epoch.Add(2 * time.Hour)
	fov := c.FieldOfView(obs, when, 25)
	for i, v := range fov {
		if v.Look.ElevationDeg < 25 {
			t.Errorf("entry %d below mask: %v", i, v.Look.ElevationDeg)
		}
		if i > 0 && fov[i-1].Look.ElevationDeg < v.Look.ElevationDeg {
			t.Error("field of view not sorted by descending elevation")
		}
		if v.Look.AzimuthDeg < 0 || v.Look.AzimuthDeg >= 360 {
			t.Errorf("azimuth out of range: %v", v.Look.AzimuthDeg)
		}
	}
	// A 120-sat mini constellation: typically 0-4 in view. Lowering the
	// mask must not shrink the set.
	fov0 := c.FieldOfView(obs, when, 0)
	if len(fov0) < len(fov) {
		t.Errorf("mask 0 gives %d < mask 25 gives %d", len(fov0), len(fov))
	}
}

func TestFieldOfViewFullConstellationAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("full constellation is slow")
	}
	c, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	obs := astro.Geodetic{LatDeg: 41.66, LonDeg: -91.53, AltKm: 0.2}
	total := 0
	n := 0
	for i := 0; i < 8; i++ {
		when := c.Epoch.Add(time.Duration(i) * 13 * time.Minute)
		total += len(c.FieldOfView(obs, when, 25))
		n++
	}
	avg := float64(total) / float64(n)
	// The paper reports ~40 satellites in view on average at a
	// mid-latitude site for the 2023 constellation.
	if avg < 15 || avg > 80 {
		t.Errorf("average field-of-view size = %v, want tens of satellites", avg)
	}
}

func TestTrackContinuity(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	obs := astro.Geodetic{LatDeg: 41.66, LonDeg: -91.53, AltKm: 0.2}
	id := c.Sats[0].ID
	pts, err := c.Track(id, obs, c.Epoch, 5*time.Minute, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 21 {
		t.Fatalf("got %d points, want 21", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		// A LEO satellite moves < 3 deg of azimuth-elevation arc in 15 s
		// at these ranges when above the horizon... but can move fast in
		// azimuth near zenith; bound the elevation rate only.
		dEl := math.Abs(pts[i].Look.ElevationDeg - pts[i-1].Look.ElevationDeg)
		if dEl > 5 {
			t.Errorf("elevation jumped %v deg in one 15 s step", dEl)
		}
	}
}

func TestTrackErrors(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	obs := astro.Geodetic{}
	if _, err := c.Track(999999, obs, c.Epoch, time.Minute, time.Second); err == nil {
		t.Error("expected error for unknown satellite")
	}
	if _, err := c.Track(c.Sats[0].ID, obs, c.Epoch, time.Minute, 0); err == nil {
		t.Error("expected error for zero step")
	}
}

func TestExportTLEsParsesBack(t *testing.T) {
	c, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := c.ExportTLEs()
	sets, err := tle.ParseFile(text)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if len(sets) != c.Len() {
		t.Fatalf("parsed %d sets, want %d", len(sets), c.Len())
	}
	for i, s := range sets {
		if !strings.HasPrefix(s.Name, "STARLINK-") {
			t.Fatalf("set %d name %q", i, s.Name)
		}
		if s.CatalogNum != c.Sats[i].ID {
			t.Fatalf("set %d catalog %d != %d", i, s.CatalogNum, c.Sats[i].ID)
		}
		if math.Abs(s.MeanMotion-c.Sats[i].TLE.MeanMotion) > 1e-7 {
			t.Fatalf("set %d mean motion drifted", i)
		}
	}
}

func TestAgeYears(t *testing.T) {
	s := &Satellite{Launch: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
	at := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	if got := s.AgeYears(at); math.Abs(got-3.0) > 0.01 {
		t.Errorf("AgeYears = %v", got)
	}
}

func TestKeplerJ2Backend(t *testing.T) {
	cfg := smallConfig()
	cfg.UseKeplerJ2 = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Sats[0].Propagator.PropagateAt(c.Epoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	alt := st.Pos.Norm() - units.EarthRadiusKm
	if alt < 500 || alt > 600 {
		t.Errorf("KeplerJ2 altitude = %v", alt)
	}
}

func TestWalkerPlaneGeometry(t *testing.T) {
	// Verify the Walker construction: without jitter, plane p's RAAN is
	// p*360/P and adjacent planes are phased by F*360/(P*S).
	c, err := New(Config{
		Shells: []Shell{{Name: "w", AltitudeKm: 550, InclinationDeg: 53, Planes: 8, SatsPerPlane: 5, PhasingF: 3}},
		Seed:   1,
		// JitterDeg cannot be exactly zero (0 selects the default), so
		// use a negligible value.
		JitterDeg: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First satellite of plane p is index p*5.
	for p := 0; p < 8; p++ {
		sat := c.Sats[p*5]
		wantRAAN := 360.0 * float64(p) / 8
		if angularDistDeg(sat.TLE.RAANDeg, wantRAAN) > 1e-6 {
			t.Errorf("plane %d RAAN %v, want %v", p, sat.TLE.RAANDeg, wantRAAN)
		}
		wantMA := 360.0 * 3 * float64(p) / 40 // F*360/(P*S) per plane
		if angularDistDeg(sat.TLE.MeanAnomalyDeg, wantMA) > 1e-6 {
			t.Errorf("plane %d first-slot MA %v, want %v", p, sat.TLE.MeanAnomalyDeg, wantMA)
		}
	}
	// Slots within a plane are evenly spaced.
	for s := 1; s < 5; s++ {
		d := angularDistDeg(c.Sats[s].TLE.MeanAnomalyDeg, c.Sats[s-1].TLE.MeanAnomalyDeg)
		if math.Abs(d-72) > 1e-6 {
			t.Errorf("slot spacing %v, want 72", d)
		}
	}
}

func TestWalkerStarPlaneGeometry(t *testing.T) {
	// Mirror of TestWalkerPlaneGeometry for the star pattern: without
	// jitter, plane p's RAAN spans 180°/P spacing (ascending nodes on a
	// half-circle) and inter-plane phasing still follows F.
	c, err := New(Config{
		Shells: []Shell{{Name: "ws", AltitudeKm: 780, InclinationDeg: 86.4, Planes: 8, SatsPerPlane: 5, PhasingF: 3,
			Geometry: WalkerStar}},
		Seed: 1,
		// JitterDeg cannot be exactly zero (0 selects the default), so
		// use a negligible value.
		JitterDeg: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		sat := c.Sats[p*5]
		wantRAAN := 180.0 * float64(p) / 8
		if angularDistDeg(sat.TLE.RAANDeg, wantRAAN) > 1e-6 {
			t.Errorf("plane %d RAAN %v, want %v", p, sat.TLE.RAANDeg, wantRAAN)
		}
		wantMA := 360.0 * 3 * float64(p) / 40 // F*360/(P*S) per plane
		if angularDistDeg(sat.TLE.MeanAnomalyDeg, wantMA) > 1e-6 {
			t.Errorf("plane %d first-slot MA %v, want %v", p, sat.TLE.MeanAnomalyDeg, wantMA)
		}
	}
	for s := 1; s < 5; s++ {
		d := angularDistDeg(c.Sats[s].TLE.MeanAnomalyDeg, c.Sats[s-1].TLE.MeanAnomalyDeg)
		if math.Abs(d-72) > 1e-6 {
			t.Errorf("slot spacing %v, want 72", d)
		}
	}
}

func TestShellValidation(t *testing.T) {
	base := Shell{Name: "v", AltitudeKm: 550, InclinationDeg: 53, Planes: 8, SatsPerPlane: 5, PhasingF: 3}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid shell rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Shell)
		frag string
	}{
		{"phasing too large", func(s *Shell) { s.PhasingF = 8 }, "phasing F=8"},
		{"phasing negative", func(s *Shell) { s.PhasingF = -1 }, "phasing F=-1"},
		{"altitude too low", func(s *Shell) { s.AltitudeKm = 80 }, "non-physical altitude"},
		{"altitude too high", func(s *Shell) { s.AltitudeKm = 60000 }, "non-physical altitude"},
		{"inclination negative", func(s *Shell) { s.InclinationDeg = -5 }, "inclination"},
		{"inclination beyond retrograde", func(s *Shell) { s.InclinationDeg = 190 }, "inclination"},
		{"unknown geometry", func(s *Shell) { s.Geometry = "walker-spiral" }, "walker-spiral"},
		{"no planes", func(s *Shell) { s.Planes = 0 }, "non-positive geometry"},
	}
	for _, tc := range cases {
		sh := base
		tc.mut(&sh)
		err := sh.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.frag)
		}
		if _, err := New(Config{Shells: []Shell{sh}, Seed: 1}); err == nil {
			t.Errorf("%s: New accepted the invalid shell", tc.name)
		}
	}
	// One pass reports every problem, not just the first.
	multi := Shell{Name: "m", AltitudeKm: 80, InclinationDeg: 200, Planes: 4, SatsPerPlane: 4, PhasingF: 9}
	err := multi.Validate()
	if err == nil {
		t.Fatal("broken shell validated")
	}
	for _, frag := range []string{"phasing F=9", "non-physical altitude", "inclination 200"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("multi-error missing %q: %v", frag, err)
		}
	}
}

func TestBuiltinShellPresetsValid(t *testing.T) {
	for _, set := range [][]Shell{StarlinkShells(), OneWebShells(), IridiumNextShells(), KeplerShells()} {
		for _, sh := range set {
			if err := sh.Validate(); err != nil {
				t.Errorf("built-in shell %q invalid: %v", sh.Name, err)
			}
		}
	}
	if n := OneWebShells()[0].Planes * OneWebShells()[0].SatsPerPlane; n != 648 {
		t.Errorf("OneWeb design has %d sats, want 648", n)
	}
	if n := IridiumNextShells()[0].Planes * IridiumNextShells()[0].SatsPerPlane; n != 66 {
		t.Errorf("Iridium NEXT design has %d sats, want 66", n)
	}
	if n := KeplerShells()[0].Planes * KeplerShells()[0].SatsPerPlane; n != 140 {
		t.Errorf("Kepler design has %d sats, want 140", n)
	}
}

func TestNamePrefix(t *testing.T) {
	cfg := smallConfig()
	cfg.NamePrefix = "ONEWEB"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Sats[0].Name; got != "ONEWEB-1000" {
		t.Errorf("first satellite named %q, want ONEWEB-1000", got)
	}
	// Default stays on the Starlink catalog naming.
	d, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Sats[0].Name; got != "STARLINK-1000" {
		t.Errorf("default first satellite named %q, want STARLINK-1000", got)
	}
}

// angularDistDeg returns the smallest absolute separation between two
// angles in degrees, in [0, 180].
func angularDistDeg(a, b float64) float64 {
	return math.Abs(units.WrapDeg180(a - b))
}
