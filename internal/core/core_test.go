package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/ml"
	"repro/internal/scheduler"
)

// Shared fixture: building a meaningful constellation + campaign is
// the expensive part, so the characterization tests share one oracle
// campaign run.
var (
	fixtureOnce sync.Once
	fixture     struct {
		cons  *constellation.Constellation
		sched *scheduler.Global
		ident *Identifier
		// oracle observations over many slots
		obs []Observation
	}
)

// testConstellation is a two-shell, reduced-density constellation that
// still gives each site a handful of candidates per slot.
func setupFixture(t testing.TB) {
	t.Helper()
	fixtureOnce.Do(func() {
		cons, err := constellation.New(constellation.Config{
			Shells: []constellation.Shell{
				{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 48, SatsPerPlane: 20, PhasingF: 17},
				{Name: "s2", AltitudeKm: 540, InclinationDeg: 53.2, Planes: 40, SatsPerPlane: 18, PhasingF: 13},
				{Name: "s3", AltitudeKm: 570, InclinationDeg: 70, Planes: 14, SatsPerPlane: 14, PhasingF: 5},
			},
			Seed: 31,
		})
		if err != nil {
			panic(err)
		}
		var terms []scheduler.Terminal
		for _, vp := range geo.StudyVantagePoints() {
			terms = append(terms, scheduler.Terminal{VantagePoint: vp})
		}
		sched, err := scheduler.NewGlobal(scheduler.Config{
			Constellation: cons,
			Terminals:     terms,
			Seed:          31,
		})
		if err != nil {
			panic(err)
		}
		ident, err := NewIdentifier(cons)
		if err != nil {
			panic(err)
		}
		res, err := runCampaign(context.Background(), CampaignConfig{
			Scheduler:  sched,
			Identifier: ident,
			Start:      cons.Epoch.Add(time.Hour),
			Slots:      500,
			Oracle:     true,
		})
		if err != nil {
			panic(err)
		}
		fixture.cons = cons
		fixture.sched = sched
		fixture.ident = ident
		fixture.obs = servedObservations(res)
	})
	if len(fixture.obs) == 0 {
		t.Skip("fixture produced no observations")
	}
}

func TestCampaignValidation(t *testing.T) {
	setupFixture(t)
	if _, err := runCampaign(context.Background(), CampaignConfig{}); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := runCampaign(context.Background(), CampaignConfig{Scheduler: fixture.sched}); err == nil {
		t.Error("nil identifier accepted")
	}
	if _, err := runCampaign(context.Background(), CampaignConfig{Scheduler: fixture.sched, Identifier: fixture.ident}); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestOracleObservationsShape(t *testing.T) {
	setupFixture(t)
	for _, o := range fixture.obs {
		c, ok := o.Chosen()
		if !ok {
			t.Fatal("Observations() returned a slot without chosen")
		}
		if c.ElevationDeg < 25 {
			t.Fatalf("chosen below mask: %v", c.ElevationDeg)
		}
		if len(o.Available) == 0 {
			t.Fatal("empty available set")
		}
		if o.LocalHour < 0 || o.LocalHour > 23 {
			t.Fatalf("local hour %d", o.LocalHour)
		}
		found := false
		for _, a := range o.Available {
			if a.ID == c.ID {
				found = true
			}
		}
		if !found {
			t.Fatal("chosen not in available")
		}
	}
}

// TestIdentificationAccuracy is the §4 validation: the obstruction-map
// + DTW pipeline must recover the scheduler's choice almost always
// (the paper's pilot study agreed with manual inspection >99%).
func TestIdentificationAccuracy(t *testing.T) {
	setupFixture(t)
	res, err := runCampaign(context.Background(), CampaignConfig{
		Scheduler:  mustScheduler(t, fixture.cons, 77),
		Identifier: fixture.ident,
		Start:      fixture.cons.Epoch.Add(2 * time.Hour),
		Slots:      60,
		ResetEvery: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted < 30 {
		t.Fatalf("only %d identifications attempted", res.Attempted)
	}
	if acc := res.Accuracy(); acc < 0.9 {
		t.Errorf("identification accuracy = %v, want >= 0.9 (paper: >0.99)", acc)
	}
}

func mustScheduler(t testing.TB, cons *constellation.Constellation, seed int64) *scheduler.Global {
	t.Helper()
	var terms []scheduler.Terminal
	for _, vp := range geo.StudyVantagePoints() {
		terms = append(terms, scheduler.Terminal{VantagePoint: vp})
	}
	s, err := scheduler.NewGlobal(scheduler.Config{Constellation: cons, Terminals: terms, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAOEPreference reproduces Figure 4's shape: chosen satellites sit
// well above available ones.
func TestAOEPreference(t *testing.T) {
	setupFixture(t)
	a, err := AnalyzeAOE(fixture.obs, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.MedianLiftDeg < 5 {
		t.Errorf("median AOE lift = %v deg, want clearly positive (paper: 22.9)", a.MedianLiftDeg)
	}
	if a.HighBandChosenFrac <= a.HighBandAvailableFrac {
		t.Errorf("high-band chosen %v <= available %v", a.HighBandChosenFrac, a.HighBandAvailableFrac)
	}
	if len(a.PerTerminal) == 0 {
		t.Fatal("no per-terminal CDFs")
	}
	for _, tc := range a.PerTerminal {
		if tc.MedianChosen <= tc.MedianAvailable {
			t.Errorf("%s: chosen median %v <= available %v", tc.Terminal, tc.MedianChosen, tc.MedianAvailable)
		}
	}
}

// TestAzimuthPreference reproduces Figure 5's shape: picks skew north,
// and the masked New York site picks far less from the NW.
func TestAzimuthPreference(t *testing.T) {
	setupFixture(t)
	a, err := AnalyzeAzimuth(fixture.obs, 30)
	if err != nil {
		t.Fatal(err)
	}
	for name, chosenN := range a.NorthChosenFrac {
		if availN := a.NorthAvailableFrac[name]; chosenN <= availN {
			t.Errorf("%s: north chosen %v <= north available %v", name, chosenN, availN)
		}
	}
	// New York's NW quadrant is masked by trees: its NW pick fraction
	// must be far below the other sites'.
	nyNW := a.NWChosenFrac["New York"]
	others := 0.0
	n := 0
	for name, f := range a.NWChosenFrac {
		if name != "New York" {
			others += f
			n++
		}
	}
	others /= float64(n)
	if nyNW >= others/2 {
		t.Errorf("NY NW fraction %v not clearly below other sites' mean %v", nyNW, others)
	}
}

// TestLaunchPreference reproduces Figure 6's shape: positive
// correlation between launch date and pick probability.
func TestLaunchPreference(t *testing.T) {
	setupFixture(t)
	a, err := AnalyzeLaunch(fixture.obs, "New York")
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanPearson <= 0 {
		t.Errorf("mean Pearson = %v, want positive (paper: 0.41)", a.MeanPearson)
	}
	for name, bins := range a.PerTerminal {
		total := 0
		for _, b := range bins {
			total += b.Picked
		}
		if total == 0 {
			t.Errorf("%s: no picks binned", name)
		}
	}
}

// TestSunlitPreference reproduces §5.3's shape: sunlit satellites are
// preferred in mixed slots, and dark picks happen at higher AOE.
func TestSunlitPreference(t *testing.T) {
	setupFixture(t)
	a, err := AnalyzeSunlit(fixture.obs, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.MixedSlots < 20 {
		t.Skipf("only %d mixed slots in fixture", a.MixedSlots)
	}
	if a.SunlitPickRate < 0.5 {
		t.Errorf("sunlit pick rate = %v, want > 0.5 (paper: 0.723)", a.SunlitPickRate)
	}
}

// TestModelBeatsBaseline reproduces Figure 8's shape: the RF model's
// top-k accuracy clearly exceeds the most-populated-cluster baseline.
func TestModelBeatsBaseline(t *testing.T) {
	setupFixture(t)
	d, err := BuildDataset(fixture.obs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainModel(d, ModelConfig{
		Folds: 3,
		Grid: []ml.ForestConfig{
			{NumTrees: 30, Tree: ml.TreeConfig{MaxDepth: 10}},
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	k5Model := res.ModelTopK[4]
	k5Base := res.BaselineTopK[4]
	if k5Model <= k5Base {
		t.Errorf("model top-5 %v <= baseline top-5 %v", k5Model, k5Base)
	}
	// Curves are monotone.
	for i := 1; i < len(res.ModelTopK); i++ {
		if res.ModelTopK[i] < res.ModelTopK[i-1] {
			t.Error("model curve not monotone")
		}
	}
	if len(res.Importances) == 0 {
		t.Fatal("no importances")
	}
	if res.TrainRows+res.HoldoutRows != len(d.X) {
		t.Error("split does not cover dataset")
	}
}

func TestCandidatePolarTracks(t *testing.T) {
	setupFixture(t)
	vp := fixture.sched.Terminals()[0].VantagePoint
	start := scheduler.EpochStart(fixture.cons.Epoch.Add(3 * time.Hour))
	tracks, dropped := fixture.ident.CandidatePolarTracks(snapshotAt(fixture.cons, start), vp, start)
	if dropped != 0 {
		t.Fatalf("healthy constellation dropped %d tracks", dropped)
	}
	if len(tracks) == 0 {
		t.Fatal("no candidate tracks")
	}
	for id, pts := range tracks {
		if len(pts) == 0 {
			t.Fatalf("satellite %d has empty track", id)
		}
		for _, p := range pts {
			if p.ElevationDeg < 25 {
				t.Fatalf("satellite %d track dips below the mask: %v", id, p.ElevationDeg)
			}
		}
	}
}

// campaignRun is a campaign's records, each kept past its emit call,
// and the engine's stats.
type campaignRun struct {
	Records []SlotRecord
	*CampaignStats
}

// runCampaign runs cfg through RunCampaignStream and keeps every
// record.
func runCampaign(ctx context.Context, cfg CampaignConfig) (*campaignRun, error) {
	res := &campaignRun{}
	st, err := RunCampaignStream(ctx, cfg, func(rec SlotRecord) error {
		res.Records = append(res.Records, keep(rec))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.CampaignStats = st
	return res, nil
}

// keep returns a copy of rec that owns its Available array.
func keep(rec SlotRecord) SlotRecord {
	rec.Observation = rec.Observation.Clone()
	return rec
}

// servedObservations extracts the observations of the records with a
// valid chosen satellite: the §5/§6 inputs of a campaign.
func servedObservations(res *campaignRun) []Observation {
	var out []Observation
	for _, rec := range res.Records {
		if rec.ChosenIdx >= 0 {
			out = append(out, rec.Observation)
		}
	}
	return out
}
