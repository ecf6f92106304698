package experiments_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

var (
	envOnce sync.Once
	envS    *experiments.Env
	envObs  []core.Observation
)

// starlinkEnv builds the starlink-baseline environment at the given
// density and seed, with edit applied to the spec first (nil: none).
func starlinkEnv(t testing.TB, scale string, seed int64, edit func(*scenario.Spec)) *experiments.Env {
	t.Helper()
	spec, err := scenario.Starlink(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(spec)
	}
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return built.Env
}

func smallEnv(t testing.TB) (*experiments.Env, []core.Observation) {
	t.Helper()
	envOnce.Do(func() {
		e := starlinkEnv(t, "small", 3, nil)
		if _, err := e.StreamObservations(200, func(o core.Observation) error {
			envObs = append(envObs, o.Clone())
			return nil
		}); err != nil {
			panic(err)
		}
		envS = e
	})
	return envS, envObs
}

// TestNewEnvScales: every -scale density builds a working
// environment; an unknown density, or a spec without shells, does not.
func TestNewEnvScales(t *testing.T) {
	for _, s := range []string{"small", "medium"} {
		if e := starlinkEnv(t, s, 1, nil); e.Cons.Len() == 0 {
			t.Fatalf("%s: empty constellation", s)
		}
	}
	if _, err := scenario.Starlink("bogus", 1); err == nil {
		t.Error("bogus scale accepted")
	}
	noShells := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "no-shells", Seed: 1,
		Terminals: scenario.TerminalsSpec{Preset: "study"},
		Campaign:  scenario.CampaignSpec{Slots: 1},
	}
	if _, err := noShells.Build(scenario.BuildOptions{}); err == nil {
		t.Error("environment without constellation shells accepted")
	}
}

func TestFig2TraceShape(t *testing.T) {
	e, _ := smallEnv(t)
	res, err := e.Fig2("Madrid", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 3000 {
		t.Errorf("%d samples", len(res.Samples))
	}
	// Boundary seconds must be within the paper's grid.
	want := map[int]bool{12: true, 27: true, 42: true, 57: true}
	for _, s := range res.BoundarySeconds {
		if !want[s] {
			t.Errorf("boundary at second %d", s)
		}
	}
	if len(res.WindowMedians) < 4 {
		t.Errorf("%d window medians", len(res.WindowMedians))
	}
}

func TestFig2UnknownTerminal(t *testing.T) {
	e, _ := smallEnv(t)
	if _, err := e.Fig2("Atlantis", time.Minute); err == nil {
		t.Error("unknown terminal accepted")
	}
}

func TestWindowStats(t *testing.T) {
	e, _ := smallEnv(t)
	res, err := e.WindowStats(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d terminals", len(res))
	}
	for _, r := range res {
		if r.Comparisons == 0 {
			t.Errorf("%s: no comparisons", r.Terminal)
			continue
		}
		if r.SignificantFrac < 0.5 {
			t.Errorf("%s: only %.0f%% of windows significant", r.Terminal, r.SignificantFrac*100)
		}
	}
}

func TestFig3(t *testing.T) {
	e, _ := smallEnv(t)
	res, err := e.Fig3("Iowa")
	if err != nil {
		t.Fatal(err)
	}
	if res.Diff.Count() == 0 {
		t.Error("XOR diff empty")
	}
	if res.Recovered.RadiusPx < 44 || res.Recovered.RadiusPx > 46 {
		t.Errorf("recovered radius %v", res.Recovered.RadiusPx)
	}
	if res.Recovered.CenterX < 60 || res.Recovered.CenterX > 62 {
		t.Errorf("recovered center x %v", res.Recovered.CenterX)
	}
}

func TestIdentValidationDTWBeatsNaive(t *testing.T) {
	e, _ := smallEnv(t)
	dtwRes, err := e.IdentValidation(25, false)
	if err != nil {
		t.Fatal(err)
	}
	naiveRes, err := e.IdentValidation(25, true)
	if err != nil {
		t.Fatal(err)
	}
	if dtwRes.Attempted == 0 {
		t.Fatal("no identifications attempted")
	}
	if dtwRes.Accuracy < 0.9 {
		t.Errorf("DTW accuracy = %v", dtwRes.Accuracy)
	}
	if dtwRes.Accuracy < naiveRes.Accuracy {
		t.Errorf("DTW (%v) worse than naive (%v)", dtwRes.Accuracy, naiveRes.Accuracy)
	}
}

func TestFigs4Through7(t *testing.T) {
	_, obs := smallEnv(t)
	if len(obs) == 0 {
		t.Skip("no observations at small scale")
	}
	aoe := core.NewAOEAccumulator(27)
	az := core.NewAzimuthAccumulator(27)
	la := core.NewLaunchAccumulator("New York")
	su := core.NewSunlitAccumulator(27)
	feed(t, obs, aoe, az, la, su)
	f4, err := aoe.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if f4.MedianLiftDeg <= 0 {
		t.Errorf("fig4 lift %v", f4.MedianLiftDeg)
	}
	f5, err := az.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.PerTerminal) == 0 {
		t.Error("fig5 empty")
	}
	f6, err := la.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.PerTerminal) == 0 {
		t.Error("fig6 empty")
	}
	if _, err := su.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestFig8QuickModel(t *testing.T) {
	_, obs := smallEnv(t)
	if len(obs) < 100 {
		t.Skip("not enough observations")
	}
	ds := core.NewDatasetBuilder()
	feed(t, obs, ds)
	d, err := ds.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TrainModel(d, experiments.QuickModelConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelTopK[0] <= 0 {
		t.Error("model top-1 is zero")
	}
	if res.ModelTopK[0] <= res.BaselineTopK[0] {
		t.Errorf("model top-1 %v <= baseline %v", res.ModelTopK[0], res.BaselineTopK[0])
	}
}

func TestAblationEnvs(t *testing.T) {
	// The ablation switches must produce working environments.
	kep := starlinkEnv(t, "small", 4, func(s *scenario.Spec) { s.Constellation.UseKeplerJ2 = true })
	if _, err := kep.StreamObservations(10); err != nil {
		t.Fatal(err)
	}
	noGSO := starlinkEnv(t, "small", 4, func(s *scenario.Spec) { s.Scheduler.DisableGSO = true })
	if _, err := noGSO.StreamObservations(10); err != nil {
		t.Fatal(err)
	}
}
