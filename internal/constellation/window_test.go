package constellation

import (
	"math"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/sgp4"
	"repro/internal/tle"
)

// FuzzSnapshotWindow checks one satellite's validity window against
// brute propagation: wherever a bounded sweep opens a window, exact
// propagation at instants spread over it (its ends included) succeeds,
// keeps the sunlit state the window carries, and stays below the
// sight's mask.
func FuzzSnapshotWindow(f *testing.F) {
	f.Add(53.0, 10.0, 20.0, 550.0, 0.0001, 0.0001, 60.0, 41.66, -91.53, 25.0, false)
	f.Add(97.6, 200.0, 300.0, 560.0, 0.0001, 0.0001, 1500.0, 78.2, 15.6, 10.0, false)
	f.Add(86.4, 120.0, 45.0, 1200.0, 0.0, 0.0001, -2000.0, -33.9, 151.2, 40.0, true)
	f.Add(63.4, 40.0, 0.0, 900.0, 0.0002, 0.1, 300.0, 0.0, 0.0, 25.0, false)
	f.Add(51.6, 250.0, 325.0, 420.0, 0.003, 0.0007, 4000.0, 47.6, -122.3, 15.0, false)
	f.Fuzz(func(t *testing.T, incl, raan, ma, altKm, bstar, ecc, offsetMin, lat, lon, mask float64, kepler bool) {
		for _, v := range []float64{incl, raan, ma, altKm, bstar, ecc, offsetMin, lat, lon, mask} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if incl < 0 || incl > 180 || altKm < 300 || altKm > 2000 || math.Abs(bstar) > 0.01 ||
			ecc < 0 || ecc > 0.2 || math.Abs(offsetMin) > 4*1440 || math.Abs(lat) > 90 || mask < 2 || mask > 80 {
			return
		}
		epoch := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
		el := &tle.TLE{
			CatalogNum: 1, Epoch: epoch, BStar: bstar, InclinationDeg: incl,
			RAANDeg: math.Mod(math.Abs(raan), 360), Eccentricity: ecc, ArgPerigeeDeg: 90,
			MeanAnomalyDeg: math.Mod(math.Abs(ma), 360), MeanMotion: meanMotionRevDay(altKm),
		}
		var eph sgp4.Ephemeris
		var err error
		if kepler {
			eph, err = sgp4.NewKeplerJ2(el)
		} else {
			eph, err = sgp4.New(el)
		}
		if err != nil {
			return
		}
		cons := &Constellation{Sats: []*Satellite{{ID: 1, TLE: el, Propagator: eph}}, Epoch: epoch}
		site := astro.Geodetic{LatDeg: lat, LonDeg: lon}
		w := newWindows([]Sight{{Site: site, MinElevDeg: mask}}, 1)
		t0 := epoch.Add(time.Duration(offsetMin * float64(time.Minute)))
		if states, _ := cons.sweep(nil, make([]bool, 1), t0, 1, w); len(states) == 0 || !w.carries(0, t0.UnixNano()) {
			return // failed to propagate, or no window proven
		}
		lo, hi := w.lo[0], w.hi[0]
		obs := astro.NewObserver(site)
		const samples = 96
		for k := 0; k <= samples; k++ {
			at := time.Unix(0, lo+(hi-lo)/samples*int64(k))
			if k == samples {
				at = time.Unix(0, hi)
			}
			st, err := eph.PropagateAt(at)
			if err != nil {
				t.Fatalf("propagation fails inside the window [%v, %v] at %v: %v", time.Unix(0, lo), time.Unix(0, hi), at, err)
			}
			shadow := astro.NewShadow(astro.SunPositionECI(at))
			if lit := shadow.Sunlit(st.Pos); lit != w.sunlit[0] {
				t.Fatalf("sunlit %v at %v inside a window carrying %v (window %v..%v around %v)", lit, at, w.sunlit[0], time.Unix(0, lo), time.Unix(0, hi), t0)
			}
			if el := obs.Observe(astro.FrameAt(at).ToECEF(st.Pos)).ElevationDeg; el >= mask {
				t.Fatalf("elevation %v° ≥ mask %v° at %v inside the window %v..%v around %v", el, mask, at, time.Unix(0, lo), time.Unix(0, hi), t0)
			}
		}
	})
}
