package constellation_test

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/sgp4"
)

// brokenEph is a propagator that always fails and bounds nothing.
type brokenEph struct{ epoch time.Time }

func (b brokenEph) Epoch() time.Time { return b.epoch }
func (b brokenEph) Propagate(float64) (sgp4.State, error) {
	return sgp4.State{}, errors.New("synthetic decay")
}
func (b brokenEph) PropagateAt(time.Time) (sgp4.State, error) {
	return sgp4.State{}, errors.New("synthetic decay")
}

// boundedSights are the study sites plus a polar and a southern site,
// at masks of 10°, 25° and 40° in turn.
func boundedSights() []constellation.Sight {
	sites := []astro.Geodetic{}
	for _, vp := range geo.StudyVantagePoints() {
		sites = append(sites, vp.Location)
	}
	sites = append(sites,
		astro.Geodetic{LatDeg: 78.2, LonDeg: 15.6, AltKm: 0.1},    // Svalbard
		astro.Geodetic{LatDeg: -33.9, LonDeg: 151.2, AltKm: 0.05}, // Sydney
	)
	masks := []float64{10, 25, 40}
	var out []constellation.Sight
	for i, s := range sites {
		out = append(out, constellation.Sight{Site: s, MinElevDeg: masks[i%len(masks)]})
	}
	return out
}

// boundedInstants walks three days from start: each day runs of
// consecutive slots, a backward jump over and before a run, off-grid
// instants, a forward gap of more than 240 slots and a backward jump
// beyond any window.
func boundedInstants(start time.Time, runLen int) []time.Time {
	const slot = 15 * time.Second
	var out []time.Time
	var at time.Time
	run := func(n int) {
		for i := 0; i < n; i++ {
			out = append(out, at)
			at = at.Add(slot)
		}
	}
	for day := 0; day < 3; day++ {
		at = start.Add(time.Duration(day) * 24 * time.Hour)
		run(runLen)
		at = at.Add(-time.Duration(runLen+15) * slot)
		run(runLen / 2)
		at = at.Add(7 * time.Second)
		run(5)
		at = at.Add(300 * slot)
		run(runLen / 2)
		at = at.Add(-2 * time.Hour)
		run(5)
	}
	return out
}

// buildPreset builds a constellation preset with the given propagator,
// breaking a few satellites' propagators and giving one a drag term that
// decays it within the three days.
func buildPreset(t *testing.T, name string, kepler bool) *constellation.Constellation {
	t.Helper()
	spec, err := scenario.LoadPreset("starlink-baseline")
	if err != nil {
		t.Fatal(err)
	}
	spec.Constellation.Preset = name
	shells, err := spec.Shells()
	if err != nil {
		t.Fatal(err)
	}
	cons, err := constellation.New(constellation.Config{Shells: shells, Seed: spec.Seed, UseKeplerJ2: kepler})
	if err != nil {
		t.Fatal(err)
	}
	n := cons.Len()
	for _, i := range []int{3, n / 2} {
		cons.Sats[i].Propagator = brokenEph{epoch: cons.Epoch}
	}
	if !kepler {
		el := *cons.Sats[n-1].TLE
		el.MeanMotion = 16.2 // ~270 km
		el.BStar = 0.02
		p, err := sgp4.New(&el)
		if err != nil {
			t.Fatal(err)
		}
		cons.Sats[n-1].Propagator = p
	}
	return cons
}

// TestBoundedSnapshotMatchesFullSweep: a cache with sights carries most
// satellites, yet over three days of slots — runs, backward jumps,
// gaps of more than 240 slots — every satellite's sunlit state, every
// sight's field of view at its mask and above through the index and
// the linear scan (set, order, float bits), and the skip counts equal
// the full sweep's, for every embedded constellation preset under both
// propagators, with broken and decaying satellites among them.
func TestBoundedSnapshotMatchesFullSweep(t *testing.T) {
	sights := boundedSights()
	for _, name := range []string{"starlink-small", "starlink-medium", "starlink-full", "oneweb", "iridium-next", "kepler"} {
		for _, kepler := range []bool{false, true} {
			bounded := buildPreset(t, name, kepler)
			full := buildPreset(t, name, kepler)
			cache := constellation.NewSnapshotCache(4, nil, sights...)
			runLen := 25
			if name == "starlink-full" {
				runLen = 10
			}
			fullCache := constellation.NewSnapshotCache(1, nil)
			propagated, total := 0, 0
			for _, at := range boundedInstants(bounded.Epoch.Add(time.Hour), runLen) {
				shared := cache.Acquire(bounded, at)
				fullSnap := fullCache.Acquire(full, at)
				ref, refSkipped := fullSnap.States, fullSnap.Skipped()
				if shared.Skipped() != refSkipped {
					t.Fatalf("%s kepler=%v %v: skipped %d, full sweep %d", name, kepler, at, shared.Skipped(), refSkipped)
				}
				lit := make([]bool, full.Len())
				for i := range lit {
					lit[i] = true
				}
				for _, st := range ref {
					lit[st.Sat.Pos()] = st.Sunlit
				}
				if !reflect.DeepEqual(shared.Sunlit, lit) {
					for i := range lit {
						if shared.Sunlit[i] != lit[i] {
							t.Fatalf("%s kepler=%v %v: satellite %d sunlit %v, full sweep %v", name, kepler, at, i, shared.Sunlit[i], lit[i])
						}
					}
				}
				for _, s := range sights {
					for _, mask := range []float64{s.MinElevDeg, math.Max(s.MinElevDeg, 40)} {
						want := constellation.ObserveFrom(s.Site, ref, mask)
						for _, linear := range []bool{false, true} {
							got := shared.AppendObserveFrom(nil, s.Site, mask, linear)
							if !sameView(got, want) {
								t.Fatalf("%s kepler=%v %v: %+v at %v° (linear %v): %d satellites, full sweep %d",
									name, kepler, at, s.Site, mask, linear, len(got), len(want))
							}
						}
					}
				}
				propagated += len(shared.States) + shared.Skipped()
				total += bounded.Len()
				shared.Release()
				fullSnap.Release()
			}
			gotTotal, gotBy := bounded.PropagationSkips()
			wantTotal, wantBy := full.PropagationSkips()
			if gotTotal != wantTotal || !reflect.DeepEqual(gotBy, wantBy) {
				t.Fatalf("%s kepler=%v: PropagationSkips (%d, %v), full sweep (%d, %v)", name, kepler, gotTotal, gotBy, wantTotal, wantBy)
			}
			if wantTotal == 0 {
				t.Fatalf("%s kepler=%v: no propagation failed; the skip check is vacuous", name, kepler)
			}
			if propagated >= total {
				t.Fatalf("%s kepler=%v: propagated all %d satellite-slots; the bounded sweep carried nothing", name, kepler, total)
			}
			t.Logf("%s kepler=%v: %d failing satellites; propagated %d of %d satellite-slots (%.1f%%)", name, kepler, len(wantBy), propagated, total, 100*float64(propagated)/float64(total))
		}
	}
}

// sameView reports whether two fields of view hold the same
// satellites in the same order with bit-identical floats.
func sameView(got, want []constellation.Visible) bool {
	if len(got) != len(want) {
		return false
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for i := range got {
		g, w := got[i], want[i]
		if g.Sat.ID != w.Sat.ID || g.Sunlit != w.Sunlit ||
			bits(g.Look.ElevationDeg) != bits(w.Look.ElevationDeg) ||
			bits(g.Look.AzimuthDeg) != bits(w.Look.AzimuthDeg) ||
			bits(g.Look.RangeKm) != bits(w.Look.RangeKm) ||
			bits(g.ECEF.X) != bits(w.ECEF.X) || bits(g.ECEF.Y) != bits(w.ECEF.Y) || bits(g.ECEF.Z) != bits(w.ECEF.Z) {
			return false
		}
	}
	return true
}

// TestUncoveredQueryFails: a cache with sights refuses, through both
// query paths and the index itself, a field of view from a site it
// does not cover or below a sight's mask, and answers a covered one.
func TestUncoveredQueryFails(t *testing.T) {
	cons, err := constellation.New(constellation.Config{Shells: constellation.IridiumNextShells(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	site := astro.Geodetic{LatDeg: 41.9, LonDeg: -93.6}
	cache := constellation.NewSnapshotCache(0, nil, constellation.Sight{Site: site, MinElevDeg: 25})
	shared := cache.Acquire(cons, cons.Epoch)
	defer shared.Release()
	mustPanic := func(what string, query func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: answered instead of failing", what)
			}
		}()
		query()
	}
	other := astro.Geodetic{LatDeg: 41.9, LonDeg: -93.5}
	for _, linear := range []bool{false, true} {
		mustPanic("other site", func() { shared.AppendObserveFrom(nil, other, 25, linear) })
		mustPanic("lower mask", func() { shared.AppendObserveFrom(nil, site, 24.9, linear) })
		shared.AppendObserveFrom(nil, site, 25, linear)
		shared.AppendObserveFrom(nil, site, 60, linear)
	}
	mustPanic("index, other site", func() { shared.Index().AppendObserveFrom(nil, other, 25) })

	// A cache with no sights holds every satellite and answers anything.
	open := constellation.NewSnapshotCache(0, nil)
	all := open.Acquire(cons, cons.Epoch)
	defer all.Release()
	if len(all.States) != cons.Len() {
		t.Fatalf("cache with no sights holds %d of %d satellites", len(all.States), cons.Len())
	}
	all.AppendObserveFrom(nil, other, 0, false)
	all.AppendObserveFrom(nil, other, 0, true)
}

// TestSnapshotCacheConcurrentAcquire: goroutines acquiring overlapping
// instants of one bounded cache concurrently — so sweeps contend for
// the constellation's windows — each see the full sweep's fields of
// view. Run under -race.
func TestSnapshotCacheConcurrentAcquire(t *testing.T) {
	sights := boundedSights()
	bounded := buildPreset(t, "starlink-small", false)
	full := buildPreset(t, "starlink-small", false)
	start := bounded.Epoch.Add(time.Hour)
	const goroutines, slots = 4, 30
	want := make([][][]constellation.Visible, slots)
	fullCache := constellation.NewSnapshotCache(1, nil)
	for k := range want {
		ref := fullCache.Acquire(full, start.Add(time.Duration(k)*15*time.Second))
		for _, s := range sights {
			want[k] = append(want[k], constellation.ObserveFrom(s.Site, ref.States, s.MinElevDeg))
		}
		ref.Release()
	}
	cache := constellation.NewSnapshotCache(2, nil, sights...)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < slots; i++ {
				k := (i*(g+1) + g) % slots // each goroutine its own order
				shared := cache.Acquire(bounded, start.Add(time.Duration(k)*15*time.Second))
				for j, s := range sights {
					if got := shared.AppendObserveFrom(nil, s.Site, s.MinElevDeg, g%2 == 1); !sameView(got, want[k][j]) {
						errs <- "field of view differs from the full sweep"
						shared.Release()
						return
					}
				}
				shared.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
