package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/geo"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
	"repro/internal/sgp4"
	"repro/internal/telemetry"
)

// TestDiscRadiusBoundsEverySample is the soundness property behind the
// pre-bounds: for every built-in shell preset, under both propagators,
// at every study and southern site, at slots spread over three days
// from the epoch and at two sample steps, every above-mask sample of
// every in-view satellite lies within discRadius of its dt = 0 plot
// point, and a satellite discRadius calls full has every sample above
// the mask.
func TestDiscRadiusBoundsEverySample(t *testing.T) {
	presets := []struct {
		name   string
		shells []constellation.Shell
	}{
		{"starlink", constellation.StarlinkShells()},
		{"oneweb", constellation.OneWebShells()},
		{"iridium-next", constellation.IridiumNextShells()},
		{"kepler", constellation.KeplerShells()},
	}
	sites := append(geo.StudyVantagePoints(), geo.SouthernVantagePoints()...)
	steps := []time.Duration{time.Second, 500 * time.Millisecond}
	for _, p := range presets {
		for _, keplerJ2 := range []bool{false, true} {
			cons, err := constellation.New(constellation.Config{Shells: p.shells, Seed: 5, UseKeplerJ2: keplerJ2})
			if err != nil {
				t.Fatal(err)
			}
			var cands, full int
			worst := 0.0 // largest sample distance as a share of its radius
			for slot := 0; slot < 12; slot++ {
				slotStart := scheduler.EpochStart(cons.Epoch.Add(time.Duration(slot) * 6 * time.Hour))
				snap := cons.Snapshot(slotStart)
				for si, vp := range sites {
					step := steps[(slot+si)%len(steps)]
					id := &Identifier{cons: cons, MinElevationDeg: 25, SampleStep: step}
					sc := slotScratch{fov: constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg)}
					smp := id.newSampler(&sc, vp, slotStart)
					for i := range sc.fov {
						v := &sc.fov[i]
						radius, isFull := smp.discRadius(v)
						if math.IsInf(radius, 1) {
							t.Fatalf("%s keplerJ2=%v: satellite %d has no finite radius", p.name, keplerJ2, v.Sat.ID)
						}
						c0 := dtw.FromPolar(obstruction.PolarPoint{ElevationDeg: v.Look.ElevationDeg, AzimuthDeg: v.Look.AzimuthDeg})
						pts, err := oracleSky(v.Sat, vp.Location, slotStart, step)
						if err != nil {
							t.Fatal(err)
						}
						cands++
						if isFull {
							full++
						}
						for k, pt := range pts {
							if pt.ElevationDeg < id.MinElevationDeg {
								if isFull {
									t.Fatalf("%s keplerJ2=%v slot %d at %s: satellite %d called full, but sample %d is at %.3f° elevation",
										p.name, keplerJ2, slot, vp.Name, v.Sat.ID, k, pt.ElevationDeg)
								}
								continue
							}
							d := math.Hypot(dtw.FromPolar(pt).X-c0.X, dtw.FromPolar(pt).Y-c0.Y)
							if d > radius {
								t.Fatalf("%s keplerJ2=%v slot %d at %s: satellite %d sample %d is %.4f from its start, radius %.4f",
									p.name, keplerJ2, slot, vp.Name, v.Sat.ID, k, d, radius)
							}
							worst = math.Max(worst, d/radius)
						}
					}
				}
			}
			if cands == 0 || full == 0 {
				t.Fatalf("%s keplerJ2=%v: property run too weak: %d candidates, %d full", p.name, keplerJ2, cands, full)
			}
			t.Logf("%s keplerJ2=%v: %d candidates, %d full, largest sample distance %.2f of the radius", p.name, keplerJ2, cands, full, worst)
		}
	}
}

// TestCampaignMatcherBruteIdenticalHalfSecond is
// TestCampaignMatcherBruteIdentical at SampleStep = 500 ms, where a
// candidate has up to 31 samples: the pre-bounds normalize by n + 31,
// and pruning must still leave every record as the brute force's. The
// pruned run must actually prune candidates before sampling them.
func TestCampaignMatcherBruteIdenticalHalfSecond(t *testing.T) {
	setupFixture(t)
	newIdent := func(brute bool) *Identifier {
		id, err := NewIdentifier(fixture.cons)
		if err != nil {
			t.Fatal(err)
		}
		id.SampleStep = 500 * time.Millisecond
		id.DisablePruning = brute
		return id
	}
	run := func(ident *Identifier, workers int, reg *telemetry.Registry) *CampaignResult {
		t.Helper()
		res, err := RunCampaign(context.Background(), CampaignConfig{
			Scheduler:  mustScheduler(t, fixture.cons, 123),
			Identifier: ident,
			Start:      fixture.cons.Epoch.Add(4 * time.Hour),
			Slots:      24,
			ResetEvery: 10,
			Workers:    workers,
			Metrics:    NewCampaignMetrics(reg),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(newIdent(true), 1, nil)
	if want.Attempted == 0 {
		t.Fatal("regression campaign attempted no identifications")
	}
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		got := run(newIdent(false), workers, reg)
		if got.Attempted != want.Attempted || got.Correct != want.Correct || got.Failed != want.Failed {
			t.Errorf("workers=%d: pruned counters (%d,%d,%d) != brute (%d,%d,%d)", workers,
				got.Attempted, got.Correct, got.Failed, want.Attempted, want.Correct, want.Failed)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			for i := range want.Records {
				if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
					t.Fatalf("workers=%d: record %d differs:\npruned: %+v\nbrute:  %+v", workers, i, got.Records[i], want.Records[i])
				}
			}
			t.Fatalf("workers=%d: %d records != brute %d", workers, len(got.Records), len(want.Records))
		}
		snap := reg.Snapshot()
		if snap.Counter("dtw_presample_pruned_total") == 0 {
			t.Errorf("workers=%d: no candidate pruned before sampling (%d candidates)", workers, snap.Counter("dtw_candidates_total"))
		}
	}
}

// gridFailing succeeds at slot starts and fails at every other
// instant, keeping the wrapped propagator's speed bound: the snapshot
// succeeds, so the satellite is in view with a finite pre-bound, and
// every later sample of the slot fails.
type gridFailing struct {
	sgp4.Ephemeris
}

func (f gridFailing) PropagateAt(t time.Time) (sgp4.State, error) {
	if !scheduler.EpochStart(t).Equal(t) {
		return sgp4.State{}, errors.New("injected propagation failure")
	}
	return f.Ephemeris.PropagateAt(t)
}

func (f gridFailing) Propagate(tsince float64) (sgp4.State, error) {
	return f.PropagateAt(f.Epoch().Add(time.Duration(tsince * float64(time.Minute))))
}

func (f gridFailing) SpeedBoundKmS(t time.Time) float64 {
	return f.Ephemeris.(speedBounder).SpeedBoundKmS(t)
}

// sampledEphemeris records the instants it is propagated at.
type sampledEphemeris struct {
	sgp4.Ephemeris
	calls *int
}

func (s sampledEphemeris) PropagateAt(t time.Time) (sgp4.State, error) {
	*s.calls++
	return s.Ephemeris.PropagateAt(t)
}

func (s sampledEphemeris) SpeedBoundKmS(t time.Time) float64 {
	return s.Ephemeris.(speedBounder).SpeedBoundKmS(t)
}

// TestPrunedDroppedCountsSampledOnly pins Identification.Dropped on
// the pruned path: it counts sampled candidates lost to propagation
// errors. A failing candidate whose pre-bound keeps it from being
// sampled is not counted, while the brute-force path, which samples
// every candidate, counts it; a failing candidate that is sampled is
// counted by both. Winner, distance and margin bits equal the brute
// force's throughout.
func TestPrunedDroppedCountsSampledOnly(t *testing.T) {
	cons, err := constellation.New(constellation.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := NewIdentifier(cons)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := NewIdentifier(cons)
	if err != nil {
		t.Fatal(err)
	}
	brute.DisablePruning = true
	vp := geo.StudyVantagePoints()[0]
	slotStart := scheduler.EpochStart(cons.Epoch.Add(2 * time.Hour))
	snap := cons.Snapshot(slotStart)
	fov := constellation.ObserveFrom(vp.Location, snap, pruned.MinElevationDeg)
	if len(fov) < 3 {
		t.Fatalf("%d satellites in view, want a crowd", len(fov))
	}
	prev, cur := obstruction.New(), obstruction.New()
	if err := pruned.PaintServingTrack(cur, fov[0].Sat.ID, vp, slotStart); err != nil {
		t.Fatal(err)
	}

	// Which candidates does the pruned path sample?
	calls := make([]int, len(fov))
	for i, v := range fov {
		v.Sat.Propagator = sampledEphemeris{Ephemeris: v.Sat.Propagator, calls: &calls[i]}
	}
	if _, err := pruned.IdentifyFromMaps(prev, cur, vp, slotStart, snap, nil); err != nil {
		t.Fatal(err)
	}
	skipped, sampled := -1, -1
	for i, v := range fov {
		v.Sat.Propagator = v.Sat.Propagator.(sampledEphemeris).Ephemeris
		if calls[i] == 0 && skipped < 0 {
			skipped = i
		}
		if calls[i] > 0 && v.Sat.ID != fov[0].Sat.ID && sampled < 0 {
			sampled = i
		}
	}
	if skipped < 0 || sampled < 0 {
		t.Fatalf("need a skipped and a sampled loser, sampled counts %v", calls)
	}

	for _, tc := range []struct {
		name        string
		fail        int
		prunedDrops int
	}{
		{"unsampled", skipped, 0},
		{"sampled", sampled, 1},
	} {
		sat := fov[tc.fail].Sat
		orig := sat.Propagator
		sat.Propagator = gridFailing{orig}
		got, err := pruned.IdentifyFromMaps(prev, cur, vp, slotStart, snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := brute.IdentifyFromMaps(prev, cur, vp, slotStart, snap, nil)
		if err != nil {
			t.Fatal(err)
		}
		sat.Propagator = orig
		if got.Dropped != tc.prunedDrops || want.Dropped != 1 {
			t.Errorf("%s failing candidate: dropped pruned %d, brute %d; want %d and 1", tc.name, got.Dropped, want.Dropped, tc.prunedDrops)
		}
		if got.SatID != want.SatID || !sameBits(got.Distance, want.Distance) || !sameBits(got.Margin, want.Margin) {
			t.Errorf("%s failing candidate: pruned %+v, brute %+v", tc.name, got, want)
		}
	}
}

// TestCampaignWithFailingCandidatesMatchesBrute runs a campaign in
// which every seventh satellite fails every mid-slot sample, so the
// pruned path meets failing candidates it samples and failing ones it
// does not. Its records must equal the brute force's.
func TestCampaignWithFailingCandidatesMatchesBrute(t *testing.T) {
	cons, err := constellation.New(constellation.Config{
		Shells: []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 48, SatsPerPlane: 20, PhasingF: 17},
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sat := range cons.Sats {
		if i%7 == 0 {
			sat.Propagator = gridFailing{sat.Propagator}
		}
	}
	run := func(brute bool) *CampaignResult {
		t.Helper()
		id, err := NewIdentifier(cons)
		if err != nil {
			t.Fatal(err)
		}
		id.DisablePruning = brute
		res, err := RunCampaign(context.Background(), CampaignConfig{
			Scheduler:  mustScheduler(t, cons, 7),
			Identifier: id,
			Start:      cons.Epoch.Add(time.Hour),
			Slots:      20,
			Workers:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := run(true), run(false)
	if want.Attempted == 0 {
		t.Fatal("campaign attempted no identifications")
	}
	if got.Attempted != want.Attempted || got.Correct != want.Correct || got.Failed != want.Failed {
		t.Errorf("pruned counters (%d,%d,%d) != brute (%d,%d,%d)",
			got.Attempted, got.Correct, got.Failed, want.Attempted, want.Correct, want.Failed)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("records differ from the brute force's")
	}
}

// TestPrunedScanZeroAlloc pins the pruned identification's warm path:
// once a worker's slotScratch and matcher have grown, bounding,
// sampling on demand and matching allocate nothing.
func TestPrunedScanZeroAlloc(t *testing.T) {
	setupFixture(t)
	id := fixture.ident
	vp := fixture.sched.Terminals()[0].VantagePoint
	slot := scheduler.EpochStart(fixture.cons.Epoch.Add(3 * time.Hour))
	snap := fixture.cons.Snapshot(slot)
	sc := slotScratch{fov: constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg)}
	cands, _ := id.candidateTracks(&sc, vp, slot)
	if len(cands) < 2 {
		t.Fatalf("%d candidates in view, want several", len(cands))
	}
	observed := append([]dtw.Point(nil), cands[len(cands)/2].Track...)
	var mt dtw.Matcher
	run := func() {
		smp := id.newSampler(&sc, vp, slot)
		if _, _, err := mt.Scan(observed, len(sc.fov), smp.preBounds(observed), smp); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the scratch
	if mt.Stats.PresamplePruned == 0 {
		t.Fatal("no candidate pruned before sampling at the probe slot")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("pruned scan = %v allocs/op, want 0", allocs)
	}
}
