package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/geo"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
	"repro/internal/sgp4"
)

// TestCampaignMatcherBruteIdentical is the end-to-end exactness
// regression for the pruned matcher: two same-seed campaigns — one
// through the dtw.Matcher cascade, one through brute-force
// dtw.Identify — must produce byte-identical records and counters.
// Combined with TestParallelCampaignMatchesSerial this pins the whole
// matrix: {serial, parallel} × {pruned, brute} all agree.
func TestCampaignMatcherBruteIdentical(t *testing.T) {
	setupFixture(t)
	brute, err := NewIdentifier(fixture.cons)
	if err != nil {
		t.Fatal(err)
	}
	brute.DisablePruning = true

	run := func(ident *Identifier, workers int) *CampaignResult {
		t.Helper()
		res, err := RunCampaign(context.Background(), CampaignConfig{
			Scheduler:  mustScheduler(t, fixture.cons, 123),
			Identifier: ident,
			Start:      fixture.cons.Epoch.Add(4 * time.Hour),
			Slots:      24,
			ResetEvery: 10,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(brute, 1)
	for _, workers := range []int{1, 4} {
		got := run(fixture.ident, workers)
		if got.Attempted != want.Attempted || got.Correct != want.Correct || got.Failed != want.Failed {
			t.Errorf("workers=%d: pruned counters (%d,%d,%d) != brute (%d,%d,%d)",
				workers, got.Attempted, got.Correct, got.Failed,
				want.Attempted, want.Correct, want.Failed)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("workers=%d: %d records != brute %d", workers, len(got.Records), len(want.Records))
		}
		for i := range want.Records {
			if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
				t.Fatalf("workers=%d: record %d differs:\npruned: %+v\nbrute:  %+v",
					workers, i, got.Records[i], want.Records[i])
			}
		}
	}
	if want.Attempted == 0 {
		t.Fatal("regression campaign attempted no identifications")
	}
}

// TestCandidateTracksSnapshotReuse: feeding a precomputed snapshot
// must be indistinguishable from letting the identifier propagate the
// constellation itself, for both the Cartesian and the polar track
// paths.
func TestCandidateTracksSnapshotReuse(t *testing.T) {
	setupFixture(t)
	vp := fixture.sched.Terminals()[0].VantagePoint
	start := scheduler.EpochStart(fixture.cons.Epoch.Add(3 * time.Hour))
	snap := fixture.cons.Snapshot(start)

	plain, droppedPlain := fixture.ident.CandidateTracks(vp, start)
	fromSnap, droppedSnap := fixture.ident.CandidateTracksFromSnapshot(snap, vp, start)
	if droppedPlain != droppedSnap {
		t.Errorf("dropped: plain %d != snapshot %d", droppedPlain, droppedSnap)
	}
	if len(plain) == 0 {
		t.Fatal("no candidates in view at the probe slot")
	}
	if !reflect.DeepEqual(plain, fromSnap) {
		t.Error("CandidateTracksFromSnapshot differs from CandidateTracks")
	}

	polarPlain := fixture.ident.CandidatePolarTracks(vp, start)
	polarSnap := fixture.ident.CandidatePolarTracksFromSnapshot(snap, vp, start)
	if len(polarPlain) == 0 {
		t.Fatal("no polar candidate tracks at the probe slot")
	}
	if !reflect.DeepEqual(polarPlain, polarSnap) {
		t.Error("CandidatePolarTracksFromSnapshot differs from CandidatePolarTracks")
	}
}

// failingEphemeris propagates successfully before failFrom and returns
// an error at every instant from failFrom on — the shape of a
// satellite whose elements go stale mid-campaign. The zero failFrom
// fails every call. The fuse is a function of time, not of call
// count, so the candidate kernel and the oracle (which propagate
// different numbers of times) see the same failures.
type failingEphemeris struct {
	inner    sgp4.Ephemeris
	failFrom time.Time
}

func (f failingEphemeris) Epoch() time.Time { return f.inner.Epoch() }

func (f failingEphemeris) Propagate(tsince float64) (sgp4.State, error) {
	return f.PropagateAt(f.inner.Epoch().Add(time.Duration(tsince * float64(time.Minute))))
}

func (f failingEphemeris) PropagateAt(t time.Time) (sgp4.State, error) {
	if !t.Before(f.failFrom) {
		return sgp4.State{}, errors.New("injected propagation failure")
	}
	return f.inner.PropagateAt(t)
}

// TestDroppedCandidatesSurfaced: a propagation failure mid-slot must
// be reported through the dropped count, not silently delete the
// candidate — the satellite was in view, and it may be the true
// serving one.
func TestDroppedCandidatesSurfaced(t *testing.T) {
	cons, err := constellation.New(constellation.Config{
		Shells: []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 22, PhasingF: 17},
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ident, err := NewIdentifier(cons)
	if err != nil {
		t.Fatal(err)
	}
	vp := geo.StudyVantagePoints()[0]

	// Find a slot with at least one candidate in view.
	var slotStart time.Time
	var snap []constellation.SatState
	var inView []constellation.Visible
	for slot := 0; slot < 240; slot++ {
		slotStart = scheduler.EpochStart(cons.Epoch.Add(time.Hour)).Add(time.Duration(slot) * scheduler.Period)
		snap = cons.Snapshot(slotStart)
		inView = constellation.ObserveFrom(vp.Location, snap, ident.MinElevationDeg)
		if len(inView) > 0 {
			break
		}
	}
	if len(inView) == 0 {
		t.Skip("no slot with candidates in view")
	}
	baseline, dropped := ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if dropped != 0 {
		t.Fatalf("healthy constellation dropped %d candidates", dropped)
	}

	// Blow the first in-view satellite's propagator: the snapshot is
	// already computed, so the failure lands inside sampleTrack.
	sat := inView[0].Sat
	orig := sat.Propagator
	sat.Propagator = failingEphemeris{inner: orig}
	defer func() { sat.Propagator = orig }()

	cands, dropped := ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if len(cands) != len(baseline)-1 {
		t.Errorf("%d candidates after failure, want %d", len(cands), len(baseline)-1)
	}
	for _, c := range cands {
		if c.ID == sat.ID {
			t.Errorf("failed satellite %d still in candidate set", sat.ID)
		}
	}

	// With every in-view propagator failing there are no candidates at
	// all; the error must say how many were dropped rather than claim
	// nothing was in view.
	for _, v := range inView {
		v := v
		if _, isFailing := v.Sat.Propagator.(failingEphemeris); !isFailing {
			keep := v.Sat.Propagator
			v.Sat.Propagator = failingEphemeris{inner: keep}
			defer func() { v.Sat.Propagator = keep }()
		}
	}
	cands, dropped = ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if len(cands) != 0 || dropped != len(inView) {
		t.Errorf("all-failing: %d candidates, dropped %d, want 0 and %d", len(cands), dropped, len(inView))
	}

	// The full identify path must report the drops, not claim nothing
	// was in view: paint a synthetic trajectory so the XOR stage
	// passes and the candidate stage is what fails.
	prev, cur := obstruction.New(), obstruction.New()
	var fake []obstruction.PolarPoint
	for i := 0; i <= 15; i++ {
		fake = append(fake, obstruction.PolarPoint{
			ElevationDeg: 35 + 2*float64(i),
			AzimuthDeg:   40 + 3*float64(i),
		})
	}
	cur.PaintTrack(fake)
	_, err = ident.IdentifyFromMapsSnapshot(prev, cur, vp, slotStart, snap)
	if err == nil {
		t.Fatal("identification succeeded with every candidate dropped")
	}
	if !strings.Contains(err.Error(), "dropped") {
		t.Errorf("error does not mention dropped candidates: %v", err)
	}
}

// oracleSky is the scalar track sampler the candidate-track kernel
// replaced, kept as its bit-identity oracle: every sample instant,
// dt = 0 included, is propagated afresh, rotated by the scalar
// astro.TEMEToECEF (one GMST per call) and observed by the
// package-level astro.Observe (one observer per call).
func oracleSky(sat *constellation.Satellite, obs astro.Geodetic, slotStart time.Time, step time.Duration) ([]obstruction.PolarPoint, error) {
	var pts []obstruction.PolarPoint
	for dt := time.Duration(0); dt <= scheduler.Period; dt += step {
		t := slotStart.Add(dt)
		st, err := sat.Propagator.PropagateAt(t)
		if err != nil {
			return nil, err
		}
		posECEF, _ := astro.TEMEToECEF(st.Pos, st.Vel, t)
		la := astro.Observe(obs, posECEF)
		pts = append(pts, obstruction.PolarPoint{ElevationDeg: la.ElevationDeg, AzimuthDeg: la.AzimuthDeg})
	}
	return pts, nil
}

// oracleCandidateTracks is the candidate stage the kernel replaced: the
// linear constellation.ObserveFrom scan of snap, then oracleSky per
// in-view satellite, keeping the above-mask samples.
func oracleCandidateTracks(id *Identifier, snap []constellation.SatState, vp geo.VantagePoint, slotStart time.Time) ([]dtw.Candidate, int) {
	var cands []dtw.Candidate
	dropped := 0
	for _, v := range constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg) {
		pts, err := oracleSky(v.Sat, vp.Location, slotStart, id.SampleStep)
		if err != nil {
			dropped++
			continue
		}
		var track []dtw.Point
		for _, p := range pts {
			if p.ElevationDeg < id.MinElevationDeg {
				continue
			}
			track = append(track, dtw.FromPolar(p))
		}
		if len(track) > 0 {
			cands = append(cands, dtw.Candidate{ID: v.Sat.ID, Track: track})
		}
	}
	return cands, dropped
}

// sameBits reports whether two floats have the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// candidatesDiff describes the first difference between two candidate
// sets — IDs, order, every point's bit pattern, dropped count — or
// returns "" when they are bit-identical.
func candidatesDiff(got []dtw.Candidate, gotDropped int, want []dtw.Candidate, wantDropped int) string {
	if gotDropped != wantDropped {
		return fmt.Sprintf("dropped %d, oracle %d", gotDropped, wantDropped)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, oracle %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID {
			return fmt.Sprintf("candidate %d is satellite %d, oracle %d", i, g.ID, w.ID)
		}
		if len(g.Track) != len(w.Track) {
			return fmt.Sprintf("satellite %d: %d points, oracle %d", w.ID, len(g.Track), len(w.Track))
		}
		for j := range w.Track {
			if !sameBits(g.Track[j].X, w.Track[j].X) || !sameBits(g.Track[j].Y, w.Track[j].Y) {
				return fmt.Sprintf("satellite %d point %d: %v, oracle %v", w.ID, j, g.Track[j], w.Track[j])
			}
		}
	}
	return ""
}

// polarDiff is candidatesDiff for polar sample tracks.
func polarDiff(got, want []obstruction.PolarPoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d samples, oracle %d", len(got), len(want))
	}
	for j := range want {
		if !sameBits(got[j].ElevationDeg, want[j].ElevationDeg) || !sameBits(got[j].AzimuthDeg, want[j].AzimuthDeg) {
			return fmt.Sprintf("sample %d: %v, oracle %v", j, got[j], want[j])
		}
	}
	return ""
}

// TestCandidateTracksMatchOracle is the candidate kernel's bit-identity
// property: over 200 slots spread across six hours, at every study and
// southern site, for the indexed and the linear field of view, at
// several sample steps, and with propagators failing from the first,
// a mid-slot and the last sample instant, the kernel returns the
// oracle's candidates — same IDs, same order, same point bits, same
// dropped count. The serving-track and polar-track paths, which share
// the kernel's sampler, are checked against the oracle too.
func TestCandidateTracksMatchOracle(t *testing.T) {
	// A private constellation: the test swaps propagators in and out.
	cons, err := constellation.New(constellation.Config{
		Shells: []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 48, SatsPerPlane: 20, PhasingF: 17},
			{Name: "s2", AltitudeKm: 560, InclinationDeg: 97.6, Planes: 12, SatsPerPlane: 20, PhasingF: 5},
		},
		Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	sites := append(geo.StudyVantagePoints(), geo.SouthernVantagePoints()...)
	steps := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 7 * time.Second}
	start := scheduler.EpochStart(cons.Epoch.Add(time.Hour))
	var sc slotScratch
	var cands, dropped, partial int
	for slot := 0; slot < 200; slot++ {
		slotStart := start.Add(time.Duration(slot) * 7 * scheduler.Period)
		step := steps[slot%len(steps)]
		id := &Identifier{cons: cons, MinElevationDeg: 25, SampleStep: step}
		snap := cons.Snapshot(slotStart)
		ix := constellation.NewSnapshotIndex(snap)

		// Fuse the leading in-view satellites of one site, after the
		// snapshot so they stay in the field of view: failing from the
		// first, a middle and the last sample instant.
		fused := sites[slot%len(sites)]
		last := int(scheduler.Period / step)
		fuses := []time.Time{slotStart, slotStart.Add(time.Duration(last/2) * step), slotStart.Add(time.Duration(last) * step)}
		var restore []func()
		for k, v := range ix.ObserveFrom(fused.Location, id.MinElevationDeg) {
			if k == len(fuses) {
				break
			}
			sat, orig := v.Sat, v.Sat.Propagator
			sat.Propagator = failingEphemeris{inner: orig, failFrom: fuses[k]}
			restore = append(restore, func() { sat.Propagator = orig })
		}

		for _, vp := range sites {
			want, wantDropped := oracleCandidateTracks(id, snap, vp, slotStart)
			for _, indexed := range []bool{true, false} {
				if indexed {
					sc.fov = ix.AppendObserveFrom(sc.fov[:0], vp.Location, id.MinElevationDeg)
				} else {
					sc.fov = constellation.AppendObserveFrom(sc.fov[:0], vp.Location, snap, id.MinElevationDeg)
				}
				got, gotDropped := id.candidateTracks(&sc, vp, slotStart)
				if d := candidatesDiff(got, gotDropped, want, wantDropped); d != "" {
					t.Fatalf("slot %d (step %v) at %s, indexed=%v: %s", slot, step, vp.Name, indexed, d)
				}
			}
			cands += len(want)
			dropped += wantDropped
			for _, c := range want {
				if len(c.Track) <= last {
					partial++
				}
			}

			// The painted serving track: every sample, dt = 0 propagated.
			for _, v := range sc.fov {
				got, gotErr := id.servingTrack(&sc, v.Sat.ID, vp, slotStart)
				want, wantErr := oracleSky(v.Sat, vp.Location, slotStart, step)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("slot %d at %s: serving track of %d: error %v, oracle %v", slot, vp.Name, v.Sat.ID, gotErr, wantErr)
				}
				if d := polarDiff(got, want); d != "" {
					t.Fatalf("slot %d at %s: serving track of %d: %s", slot, vp.Name, v.Sat.ID, d)
				}
				break
			}
		}

		// The polar candidate tracks of the fused site.
		gotPolar := id.CandidatePolarTracksFromSnapshot(snap, fused, slotStart)
		wantPolar := map[int][]obstruction.PolarPoint{}
		for _, v := range constellation.ObserveFrom(fused.Location, snap, id.MinElevationDeg) {
			pts, err := oracleSky(v.Sat, fused.Location, slotStart, step)
			if err != nil {
				continue
			}
			var masked []obstruction.PolarPoint
			for _, p := range pts {
				if p.ElevationDeg >= id.MinElevationDeg {
					masked = append(masked, p)
				}
			}
			if len(masked) > 0 {
				wantPolar[v.Sat.ID] = masked
			}
		}
		if len(gotPolar) != len(wantPolar) {
			t.Fatalf("slot %d at %s: %d polar tracks, oracle %d", slot, fused.Name, len(gotPolar), len(wantPolar))
		}
		for satID, want := range wantPolar {
			if d := polarDiff(gotPolar[satID], want); d != "" {
				t.Fatalf("slot %d at %s: polar track of %d: %s", slot, fused.Name, satID, d)
			}
		}

		for _, r := range restore {
			r()
		}
	}
	if cands == 0 || dropped == 0 || partial == 0 {
		t.Fatalf("property run too weak: %d candidates, %d dropped, %d mask-crossing tracks", cands, dropped, partial)
	}
}

// TestCandidateTracksZeroAlloc pins the campaign engine's warm path:
// once a worker's slotScratch has grown, sampling the candidate tracks
// and the serving track allocates nothing, including when the slot
// changes and the frame table is rebuilt.
func TestCandidateTracksZeroAlloc(t *testing.T) {
	setupFixture(t)
	id := fixture.ident
	vp := fixture.sched.Terminals()[0].VantagePoint
	slotA := scheduler.EpochStart(fixture.cons.Epoch.Add(3 * time.Hour))
	slotB := slotA.Add(scheduler.Period)
	fovA := constellation.NewSnapshotIndex(fixture.cons.Snapshot(slotA)).ObserveFrom(vp.Location, id.MinElevationDeg)
	fovB := constellation.NewSnapshotIndex(fixture.cons.Snapshot(slotB)).ObserveFrom(vp.Location, id.MinElevationDeg)
	if len(fovA) == 0 || len(fovB) == 0 {
		t.Fatal("no satellites in view at the probe slots")
	}
	var sc slotScratch
	samples := 0
	run := func() {
		samples = 0
		for _, slot := range [2]time.Time{slotA, slotB} {
			sc.fov = fovA
			if slot == slotB {
				sc.fov = fovB
			}
			if _, err := id.servingTrack(&sc, sc.fov[0].Sat.ID, vp, slot); err != nil {
				t.Fatal(err)
			}
			cands, _ := id.candidateTracks(&sc, vp, slot)
			for _, c := range cands {
				samples += len(c.Track)
			}
		}
	}
	run() // grow the scratch
	if samples == 0 {
		t.Fatal("kernel sampled no points")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("candidate-track kernel = %v allocs/op, want 0", allocs)
	}
}

// TestSampleStepNonPositiveDefaults: SampleStep is exported, so an
// Identifier built without the constructor can carry 0 or a negative
// step. Both select the documented 1 s default; the sample loop used
// to spin forever on them.
func TestSampleStepNonPositiveDefaults(t *testing.T) {
	setupFixture(t)
	vp := fixture.sched.Terminals()[0].VantagePoint
	slotStart := scheduler.EpochStart(fixture.cons.Epoch.Add(3 * time.Hour))
	snap := fixture.cons.Snapshot(slotStart)
	want, wantDropped := fixture.ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	if len(want) == 0 {
		t.Fatal("no candidates in view at the probe slot")
	}
	wantServing, err := fixture.ident.ServingTrack(want[0].ID, vp, slotStart)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []time.Duration{0, -time.Second} {
		id := &Identifier{cons: fixture.cons, MinElevationDeg: 25, SampleStep: step}
		var got []dtw.Candidate
		var gotDropped int
		var gotServing []obstruction.PolarPoint
		var servingErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			got, gotDropped = id.CandidateTracksFromSnapshot(snap, vp, slotStart)
			gotServing, servingErr = id.ServingTrack(want[0].ID, vp, slotStart)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			// A spinning sampler appends without bound and cannot be
			// stopped from here; end the test binary rather than let
			// it exhaust memory under the remaining tests.
			panic(fmt.Sprintf("SampleStep %v: track sampling did not terminate", step))
		}
		if d := candidatesDiff(got, gotDropped, want, wantDropped); d != "" {
			t.Errorf("SampleStep %v: %s", step, d)
		}
		if servingErr != nil {
			t.Fatal(servingErr)
		}
		if d := polarDiff(gotServing, wantServing); d != "" {
			t.Errorf("SampleStep %v: serving track: %s", step, d)
		}
	}
}
