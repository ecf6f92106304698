package tle

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// issTLE is the canonical ISS element set used widely in SGP4 test
// suites (epoch 2008-09-20).
const (
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func TestChecksumKnown(t *testing.T) {
	if got := Checksum(issLine1); got != 7 {
		t.Errorf("line1 checksum = %d, want 7", got)
	}
	if got := Checksum(issLine2); got != 7 {
		t.Errorf("line2 checksum = %d, want 7", got)
	}
}

func TestParseISS(t *testing.T) {
	tl, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tl.CatalogNum != 25544 {
		t.Errorf("catalog = %d", tl.CatalogNum)
	}
	if tl.IntlDesig != "98067A" {
		t.Errorf("intl desig = %q", tl.IntlDesig)
	}
	if math.Abs(tl.InclinationDeg-51.6416) > 1e-9 {
		t.Errorf("inclination = %v", tl.InclinationDeg)
	}
	if math.Abs(tl.RAANDeg-247.4627) > 1e-9 {
		t.Errorf("raan = %v", tl.RAANDeg)
	}
	if math.Abs(tl.Eccentricity-0.0006703) > 1e-12 {
		t.Errorf("ecc = %v", tl.Eccentricity)
	}
	if math.Abs(tl.MeanMotion-15.72125391) > 1e-9 {
		t.Errorf("mean motion = %v", tl.MeanMotion)
	}
	if math.Abs(tl.MeanMotionDot+0.00002182) > 1e-12 {
		t.Errorf("ndot = %v", tl.MeanMotionDot)
	}
	if math.Abs(tl.BStar+0.11606e-4) > 1e-12 {
		t.Errorf("bstar = %v", tl.BStar)
	}
	// Epoch: 2008 day 264.51782528 => Sep 20 2008, ~12:25:40 UTC.
	if tl.Epoch.Year() != 2008 || tl.Epoch.Month() != time.September || tl.Epoch.Day() != 20 {
		t.Errorf("epoch = %v", tl.Epoch)
	}
}

func TestParseChecksumRejected(t *testing.T) {
	bad := issLine1[:68] + "9" // wrong checksum digit
	if _, err := Parse(bad, issLine2); err == nil {
		t.Fatal("expected checksum error")
	}
}

func TestParseShortLine(t *testing.T) {
	if _, err := Parse("1 25544", issLine2); err == nil {
		t.Fatal("expected short line error")
	}
}

func TestParseWrongLineNumbers(t *testing.T) {
	if _, err := Parse(issLine2, issLine2); err == nil {
		t.Fatal("expected line-number error")
	}
	if _, err := Parse(issLine1, issLine1); err == nil {
		t.Fatal("expected line-number error")
	}
}

func TestParseCatalogMismatch(t *testing.T) {
	l2 := "2 25545" + issLine2[7:68]
	l2 = l2[:68] + string(rune('0'+Checksum(l2)))
	if _, err := Parse(issLine1, l2); err == nil {
		t.Fatal("expected catalog mismatch error")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	orig, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := orig.Format()
	if len(l1) != 69 || len(l2) != 69 {
		t.Fatalf("formatted lengths %d, %d", len(l1), len(l2))
	}
	re, err := Parse(l1, l2)
	if err != nil {
		t.Fatalf("re-parse: %v\nl1=%q\nl2=%q", err, l1, l2)
	}
	if re.CatalogNum != orig.CatalogNum {
		t.Errorf("catalog %d != %d", re.CatalogNum, orig.CatalogNum)
	}
	checks := []struct {
		name string
		a, b float64
		eps  float64
	}{
		{"incl", re.InclinationDeg, orig.InclinationDeg, 1e-4},
		{"raan", re.RAANDeg, orig.RAANDeg, 1e-4},
		{"ecc", re.Eccentricity, orig.Eccentricity, 1e-7},
		{"argp", re.ArgPerigeeDeg, orig.ArgPerigeeDeg, 1e-4},
		{"ma", re.MeanAnomalyDeg, orig.MeanAnomalyDeg, 1e-4},
		{"mm", re.MeanMotion, orig.MeanMotion, 1e-7},
		{"bstar", re.BStar, orig.BStar, 1e-9},
	}
	for _, c := range checks {
		if math.Abs(c.a-c.b) > c.eps {
			t.Errorf("%s: %v != %v", c.name, c.a, c.b)
		}
	}
	if re.Epoch.Sub(orig.Epoch).Abs() > time.Millisecond {
		t.Errorf("epoch drift: %v vs %v", re.Epoch, orig.Epoch)
	}
}

func TestFormatRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		orig := &TLE{
			CatalogNum:     40000 + rng.Intn(9999),
			IntlDesig:      "20001A",
			Epoch:          time.Date(2020+rng.Intn(4), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC),
			MeanMotionDot:  (rng.Float64() - 0.5) * 1e-4,
			BStar:          (rng.Float64() - 0.5) * 1e-3,
			ElementSetNum:  rng.Intn(1000),
			InclinationDeg: rng.Float64() * 180,
			RAANDeg:        rng.Float64() * 360,
			Eccentricity:   rng.Float64() * 0.01,
			ArgPerigeeDeg:  rng.Float64() * 360,
			MeanAnomalyDeg: rng.Float64() * 360,
			MeanMotion:     14 + rng.Float64()*2,
			RevNumber:      rng.Intn(99999),
		}
		l1, l2 := orig.Format()
		re, err := Parse(l1, l2)
		if err != nil {
			t.Fatalf("iter %d: re-parse: %v\nl1=%q\nl2=%q", i, err, l1, l2)
		}
		if math.Abs(re.MeanMotion-orig.MeanMotion) > 1e-7 {
			t.Fatalf("iter %d: mean motion %v != %v", i, re.MeanMotion, orig.MeanMotion)
		}
		if math.Abs(re.Eccentricity-orig.Eccentricity) > 1e-7 {
			t.Fatalf("iter %d: ecc %v != %v", i, re.Eccentricity, orig.Eccentricity)
		}
		if math.Abs(re.BStar-orig.BStar)/math.Max(math.Abs(orig.BStar), 1e-12) > 1e-4 {
			t.Fatalf("iter %d: bstar %v != %v", i, re.BStar, orig.BStar)
		}
		if re.Epoch.Sub(orig.Epoch).Abs() > 5*time.Millisecond {
			t.Fatalf("iter %d: epoch %v != %v", i, re.Epoch, orig.Epoch)
		}
	}
}

func TestJulianDateKnown(t *testing.T) {
	// J2000.0 epoch: 2000-01-01 12:00 UTC = JD 2451545.0
	jd := JulianDate(time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC))
	if math.Abs(jd-2451545.0) > 1e-9 {
		t.Errorf("J2000 JD = %v", jd)
	}
	// 1999-12-31 00:00 UTC = JD 2451543.5
	jd = JulianDate(time.Date(1999, 12, 31, 0, 0, 0, 0, time.UTC))
	if math.Abs(jd-2451543.5) > 1e-9 {
		t.Errorf("JD = %v", jd)
	}
}

func TestJulianRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		tm := time.Date(1990+rng.Intn(50), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
			rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC)
		back := TimeFromJulian(JulianDate(tm))
		if back.Sub(tm).Abs() > time.Millisecond {
			t.Fatalf("round trip %v -> %v", tm, back)
		}
	}
}

func TestExpFloatParsing(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{" 00000+0", 0},
		{" 00000-0", 0},
		{" 12345-4", 0.12345e-4},
		{"-12345-4", -0.12345e-4},
		{" 12345+1", 0.12345e1},
		{"-11606-4", -0.11606e-4},
	}
	for _, c := range cases {
		got, err := parseExpFloat(c.in)
		if err != nil {
			t.Errorf("parseExpFloat(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("parseExpFloat(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestExpFloatFormatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		v := (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(10)-7))
		s := formatExpFloat(v)
		if len(s) != 8 {
			t.Fatalf("formatted %q has length %d", s, len(s))
		}
		got, err := parseExpFloat(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if v != 0 && math.Abs(got-v)/math.Abs(v) > 1e-4 {
			t.Fatalf("round trip %v -> %q -> %v", v, s, got)
		}
	}
}

func TestEpochYearWindow(t *testing.T) {
	// yy=57 => 1957; yy=56 => 2056; yy=08 => 2008.
	if y := epochToTime(57, 1).Year(); y != 1957 {
		t.Errorf("yy=57 -> %d", y)
	}
	if y := epochToTime(56, 1).Year(); y != 2056 {
		t.Errorf("yy=56 -> %d", y)
	}
	if y := epochToTime(8, 1).Year(); y != 2008 {
		t.Errorf("yy=08 -> %d", y)
	}
}

// TimeFromJulian converts a Julian date back to a time.Time (UTC).
func TimeFromJulian(jd float64) time.Time {
	// Meeus inverse algorithm.
	z := math.Floor(jd + 0.5)
	f := jd + 0.5 - z
	a := z
	if z >= 2299161 {
		alpha := math.Floor((z - 1867216.25) / 36524.25)
		a = z + 1 + alpha - math.Floor(alpha/4)
	}
	b := a + 1524
	c := math.Floor((b - 122.1) / 365.25)
	d := math.Floor(365.25 * c)
	e := math.Floor((b - d) / 30.6001)
	day := b - d - math.Floor(30.6001*e) + f
	var month int
	if e < 14 {
		month = int(e) - 1
	} else {
		month = int(e) - 13
	}
	var year int
	if month > 2 {
		year = int(c) - 4716
	} else {
		year = int(c) - 4715
	}
	dayInt := int(day)
	frac := day - float64(dayInt)
	nanos := int64(frac * 86400 * 1e9)
	return time.Date(year, time.Month(month), dayInt, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(nanos))
}
