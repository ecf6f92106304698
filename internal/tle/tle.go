// Package tle parses and formats NORAD two-line element sets.
//
// A TLE encodes the mean orbital elements of an Earth satellite at an
// epoch, in the specific units the SGP4 propagator expects. This
// package implements the fixed-column format including the mod-10 line
// checksum and the compressed exponential notation used for B* and the
// second derivative of mean motion, and converts epochs to time.Time.
//
// The format round-trips: Format(Parse(lines)) reproduces equivalent
// lines, which the tests rely on.
package tle

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// TLE holds the parsed fields of a two-line element set. Angles are in
// degrees, mean motion in revolutions/day, exactly as in the format.
type TLE struct {
	Name       string // optional line 0 (satellite name)
	CatalogNum int    // NORAD catalog number
	ClassClass byte   // classification, usually 'U'
	IntlDesig  string // international designator, e.g. "19074A"
	Epoch      time.Time

	MeanMotionDot  float64 // first derivative of mean motion / 2, rev/day^2
	MeanMotionDDot float64 // second derivative of mean motion / 6, rev/day^3
	BStar          float64 // drag term, 1/earth radii
	ElementSetNum  int

	InclinationDeg float64 // orbital inclination, degrees
	RAANDeg        float64 // right ascension of ascending node, degrees
	Eccentricity   float64 // unitless, 0 <= e < 1
	ArgPerigeeDeg  float64 // argument of perigee, degrees
	MeanAnomalyDeg float64 // mean anomaly at epoch, degrees
	MeanMotion     float64 // revolutions per day
	RevNumber      int     // revolution number at epoch
}

// Checksum computes the TLE mod-10 checksum of the first 68 characters
// of a line: digits count their value, '-' counts 1, everything else 0.
func Checksum(line string) int {
	sum := 0
	n := len(line)
	if n > 68 {
		n = 68
	}
	for i := 0; i < n; i++ {
		c := line[i]
		switch {
		case c >= '0' && c <= '9':
			sum += int(c - '0')
		case c == '-':
			sum++
		}
	}
	return sum % 10
}

// ParseError describes a malformed TLE with the offending line.
type ParseError struct {
	Line int    // 1 or 2
	Col  int    // starting column (1-based), 0 if whole-line
	Msg  string // what was wrong
}

func (e *ParseError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("tle: line %d col %d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("tle: line %d: %s", e.Line, e.Msg)
}

// Parse decodes a TLE from its two lines. Lines may carry trailing
// whitespace. The checksum of each line is verified.
func Parse(line1, line2 string) (*TLE, error) {
	line1 = strings.TrimRight(line1, " \r\n")
	line2 = strings.TrimRight(line2, " \r\n")
	if len(line1) < 69 {
		return nil, &ParseError{Line: 1, Msg: fmt.Sprintf("too short: %d chars, want 69", len(line1))}
	}
	if len(line2) < 69 {
		return nil, &ParseError{Line: 2, Msg: fmt.Sprintf("too short: %d chars, want 69", len(line2))}
	}
	if line1[0] != '1' {
		return nil, &ParseError{Line: 1, Col: 1, Msg: "line number is not '1'"}
	}
	if line2[0] != '2' {
		return nil, &ParseError{Line: 2, Col: 1, Msg: "line number is not '2'"}
	}
	if want, got := Checksum(line1), int(line1[68]-'0'); want != got {
		return nil, &ParseError{Line: 1, Col: 69, Msg: fmt.Sprintf("checksum mismatch: computed %d, stored %d", want, got)}
	}
	if want, got := Checksum(line2), int(line2[68]-'0'); want != got {
		return nil, &ParseError{Line: 2, Col: 69, Msg: fmt.Sprintf("checksum mismatch: computed %d, stored %d", want, got)}
	}

	t := &TLE{}
	var err error
	if t.CatalogNum, err = parseInt(line1[2:7]); err != nil {
		return nil, &ParseError{Line: 1, Col: 3, Msg: "catalog number: " + err.Error()}
	}
	t.ClassClass = line1[7]
	t.IntlDesig = strings.TrimSpace(line1[9:17])

	epochYear, err := parseInt(line1[18:20])
	if err != nil {
		return nil, &ParseError{Line: 1, Col: 19, Msg: "epoch year: " + err.Error()}
	}
	epochDay, err := parseFloat(line1[20:32])
	if err != nil {
		return nil, &ParseError{Line: 1, Col: 21, Msg: "epoch day: " + err.Error()}
	}
	t.Epoch = epochToTime(epochYear, epochDay)

	if t.MeanMotionDot, err = parseSignedFloat(line1[33:43]); err != nil {
		return nil, &ParseError{Line: 1, Col: 34, Msg: "mean motion dot: " + err.Error()}
	}
	if t.MeanMotionDDot, err = parseExpFloat(line1[44:52]); err != nil {
		return nil, &ParseError{Line: 1, Col: 45, Msg: "mean motion ddot: " + err.Error()}
	}
	if t.BStar, err = parseExpFloat(line1[53:61]); err != nil {
		return nil, &ParseError{Line: 1, Col: 54, Msg: "bstar: " + err.Error()}
	}
	if t.ElementSetNum, err = parseInt(line1[64:68]); err != nil {
		return nil, &ParseError{Line: 1, Col: 65, Msg: "element set number: " + err.Error()}
	}

	cat2, err := parseInt(line2[2:7])
	if err != nil {
		return nil, &ParseError{Line: 2, Col: 3, Msg: "catalog number: " + err.Error()}
	}
	if cat2 != t.CatalogNum {
		return nil, &ParseError{Line: 2, Col: 3, Msg: fmt.Sprintf("catalog number %d does not match line 1 (%d)", cat2, t.CatalogNum)}
	}
	if t.InclinationDeg, err = parseFloat(line2[8:16]); err != nil {
		return nil, &ParseError{Line: 2, Col: 9, Msg: "inclination: " + err.Error()}
	}
	if t.RAANDeg, err = parseFloat(line2[17:25]); err != nil {
		return nil, &ParseError{Line: 2, Col: 18, Msg: "raan: " + err.Error()}
	}
	ecc, err := parseInt(strings.TrimSpace(line2[26:33]))
	if err != nil {
		return nil, &ParseError{Line: 2, Col: 27, Msg: "eccentricity: " + err.Error()}
	}
	t.Eccentricity = float64(ecc) * 1e-7
	if t.ArgPerigeeDeg, err = parseFloat(line2[34:42]); err != nil {
		return nil, &ParseError{Line: 2, Col: 35, Msg: "argument of perigee: " + err.Error()}
	}
	if t.MeanAnomalyDeg, err = parseFloat(line2[43:51]); err != nil {
		return nil, &ParseError{Line: 2, Col: 44, Msg: "mean anomaly: " + err.Error()}
	}
	if t.MeanMotion, err = parseFloat(line2[52:63]); err != nil {
		return nil, &ParseError{Line: 2, Col: 53, Msg: "mean motion: " + err.Error()}
	}
	if t.RevNumber, err = parseInt(strings.TrimSpace(line2[63:68])); err != nil {
		return nil, &ParseError{Line: 2, Col: 64, Msg: "rev number: " + err.Error()}
	}

	if t.MeanMotion <= 0 {
		return nil, &ParseError{Line: 2, Col: 53, Msg: "mean motion must be positive"}
	}
	if t.Eccentricity < 0 || t.Eccentricity >= 1 {
		return nil, &ParseError{Line: 2, Col: 27, Msg: "eccentricity out of [0,1)"}
	}
	return t, nil
}

// Format renders the TLE as its two 69-character lines with valid
// checksums. The optional name line is not included; see FormatLines.
func (t *TLE) Format() (line1, line2 string) {
	year := t.Epoch.UTC().Year() % 100
	yday := epochDayOfYear(t.Epoch)

	l1 := fmt.Sprintf("1 %05d%c %-8s %02d%012.8f %s %s %s 0 %4d",
		t.CatalogNum, classOrDefault(t.ClassClass), t.IntlDesig,
		year, yday,
		formatSignedFloat(t.MeanMotionDot),
		formatExpFloat(t.MeanMotionDDot),
		formatExpFloat(t.BStar),
		t.ElementSetNum%10000,
	)
	l1 = fixLen(l1, 68)
	l1 += strconv.Itoa(Checksum(l1))

	l2 := fmt.Sprintf("2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f%5d",
		t.CatalogNum, t.InclinationDeg, t.RAANDeg,
		int(math.Round(t.Eccentricity*1e7)),
		t.ArgPerigeeDeg, t.MeanAnomalyDeg, t.MeanMotion, t.RevNumber%100000,
	)
	l2 = fixLen(l2, 68)
	l2 += strconv.Itoa(Checksum(l2))
	return l1, l2
}

// FormatLines renders the TLE as a 3-line block when Name is set, else
// 2 lines.
func (t *TLE) FormatLines() []string {
	l1, l2 := t.Format()
	if t.Name != "" {
		return []string{t.Name, l1, l2}
	}
	return []string{l1, l2}
}

// JulianDate converts a time to a Julian date. Works for the Gregorian
// calendar era relevant here (1957+).
func JulianDate(tm time.Time) float64 {
	tm = tm.UTC()
	y := tm.Year()
	m := int(tm.Month())
	d := tm.Day()
	if m <= 2 {
		y--
		m += 12
	}
	a := y / 100
	b := 2 - a + a/4
	jd0 := math.Floor(365.25*float64(y+4716)) + math.Floor(30.6001*float64(m+1)) + float64(d) + float64(b) - 1524.5
	secs := float64(tm.Hour())*3600 + float64(tm.Minute())*60 + float64(tm.Second()) + float64(tm.Nanosecond())*1e-9
	return jd0 + secs/86400.0
}

func classOrDefault(c byte) byte {
	if c == 0 {
		return 'U'
	}
	return c
}

func fixLen(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	for len(s) < n {
		s += " "
	}
	return s
}

func parseInt(s string) (int, error) {
	return strconv.Atoi(strings.TrimSpace(s))
}

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// parseSignedFloat handles the " .00001234" / "-.00001234" style used
// for mean motion dot.
func parseSignedFloat(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	neg := false
	switch s[0] {
	case '-':
		neg = true
		s = s[1:]
	case '+':
		s = s[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseExpFloat handles the compressed exponent notation used for B*
// and nddot: " 12345-4" means 0.12345e-4, "-12345+1" means -0.12345e1.
func parseExpFloat(s string) (float64, error) {
	s = strings.TrimRight(s, " ")
	s = strings.TrimLeft(s, " ")
	if s == "" || s == "0" || s == "00000-0" || s == "00000+0" {
		return 0, nil
	}
	sign := 1.0
	switch s[0] {
	case '-':
		sign = -1
		s = s[1:]
	case '+':
		s = s[1:]
	}
	if len(s) < 2 {
		return 0, fmt.Errorf("malformed exponent field %q", s)
	}
	expPart := s[len(s)-2:]
	mantPart := s[:len(s)-2]
	expSign := 1
	switch expPart[0] {
	case '-':
		expSign = -1
	case '+':
	default:
		return 0, fmt.Errorf("malformed exponent %q", expPart)
	}
	expDigit := int(expPart[1] - '0')
	if expDigit < 0 || expDigit > 9 {
		return 0, fmt.Errorf("malformed exponent digit %q", expPart)
	}
	mant, err := strconv.ParseFloat(strings.TrimSpace(mantPart), 64)
	if err != nil {
		return 0, err
	}
	mant /= math.Pow(10, float64(len(strings.TrimSpace(mantPart))))
	return sign * mant * math.Pow(10, float64(expSign*expDigit)), nil
}

func formatSignedFloat(v float64) string {
	s := fmt.Sprintf("%.8f", math.Abs(v))
	// ".00001234" with sign slot.
	s = strings.TrimPrefix(s, "0")
	if v < 0 {
		return "-" + s
	}
	return " " + s
}

func formatExpFloat(v float64) string {
	if v == 0 {
		return " 00000+0"
	}
	sign := " "
	if v < 0 {
		sign = "-"
		v = -v
	}
	exp := int(math.Floor(math.Log10(v))) + 1
	mant := v / math.Pow(10, float64(exp))
	digits := int(math.Round(mant * 1e5))
	if digits >= 100000 {
		digits /= 10
		exp++
	}
	expSign := "+"
	if exp < 0 {
		expSign = "-"
		exp = -exp
	}
	if exp > 9 {
		// Out of representable range; saturate.
		exp = 9
	}
	return fmt.Sprintf("%s%05d%s%d", sign, digits, expSign, exp)
}

// epochToTime converts the 2-digit year + fractional day-of-year form.
func epochToTime(yy int, day float64) time.Time {
	year := 2000 + yy
	if yy >= 57 { // TLE convention: 57-99 => 1957-1999
		year = 1900 + yy
	}
	base := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	// Day 1.0 is Jan 1 00:00.
	d := day - 1.0
	return base.Add(time.Duration(d * float64(24*time.Hour)))
}

func epochDayOfYear(t time.Time) float64 {
	t = t.UTC()
	base := time.Date(t.Year(), 1, 1, 0, 0, 0, 0, time.UTC)
	return 1.0 + t.Sub(base).Seconds()/86400.0
}
