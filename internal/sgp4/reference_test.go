package sgp4_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/sgp4"
	"repro/internal/tle"
)

// elements builds an element set without going through the text
// format.
func elements(incl, raan, ecc, argp, ma, mm, bstar float64) *tle.TLE {
	return &tle.TLE{
		CatalogNum:     44714,
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

// TestPropagateMatchesReference pins the single-evaluation SGP4 kernel
// to the kernel it replaced, bit for bit: every satellite of the full
// Starlink design, the ISS and an eccentric orbit over tsince in
// [-750, 7500] min, and element sets that end in the decayed and the
// eccentricity-out-of-range errors, whose error text and identity
// must match too.
func TestPropagateMatchesReference(t *testing.T) {
	const lo, hi = -750.0, 7500.0
	check := func(name string, p *sgp4.Propagator, step, offset float64) {
		t.Helper()
		for ts := lo + offset; ts <= hi; ts += step {
			if err := sgp4.MatchesReference(p, ts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// The end points themselves, whatever the step.
		for _, ts := range []float64{lo, 0, hi} {
			if err := sgp4.MatchesReference(p, ts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}

	cons, err := constellation.New(constellation.Config{Shells: constellation.StarlinkShells(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// About a hundred instants per satellite; the per-satellite offset
	// spreads the sampled phases over the whole step.
	const step = 82.5
	for i, s := range cons.Sats {
		p, ok := s.Propagator.(*sgp4.Propagator)
		if !ok {
			t.Fatalf("satellite %d: propagator %T, want *sgp4.Propagator", s.ID, s.Propagator)
		}
		check(s.Name, p, step, step*float64(i%997)/997)
	}

	iss, err := tle.Parse(
		"1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
		"2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		el   *tle.TLE
		// wantErr, when set, is a substring of the first error the
		// element set reaches within the range, so the error path is
		// exercised rather than assumed.
		wantErr string
		decayed bool
	}{
		{name: "iss", el: iss},
		{name: "eccentric", el: elements(63.4, 40, 0.1, 270, 0, 13.0, 0)},
		{name: "decays", el: elements(53, 10, 0.0001, 90, 0, 16.0, 0.05), wantErr: "decayed", decayed: true},
		{name: "decays-simple-drag", el: elements(53, 10, 0.0001, 90, 0, 16.2, 0.01), wantErr: "decayed", decayed: true},
		{name: "ecc-out-of-range", el: elements(53, 10, 0.01, 90, 0, 16.2, 0.05), wantErr: "mean eccentricity"},
	} {
		p, err := sgp4.New(c.el)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name, p, 0.25, 0)
		if c.wantErr == "" {
			continue
		}
		var first error
		for ts := 0.0; ts <= hi && first == nil; ts += 0.25 {
			_, first = p.Propagate(ts)
		}
		if first == nil || !strings.Contains(first.Error(), c.wantErr) || errors.Is(first, sgp4.ErrDecayed) != c.decayed {
			t.Fatalf("%s: first error %v, want one containing %q (ErrDecayed %v)", c.name, first, c.wantErr, c.decayed)
		}
	}
}
