package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ml"
)

// TestAccumulatorsMatchBatch: each accumulator, fed one observation
// at a time alongside the others (as a campaign's consumer list feeds
// them), finalizes to exactly what it does fed the slice alone
// (reflect.DeepEqual covers every float bit).
func TestAccumulatorsMatchBatch(t *testing.T) {
	setupFixture(t)
	obs := fixture.obs

	aoeAcc := NewAOEAccumulator(27)
	azAcc := NewAzimuthAccumulator(27)
	laAcc := NewLaunchAccumulator("New York")
	suAcc := NewSunlitAccumulator(27)
	dsAcc := NewDatasetBuilder()
	for _, o := range obs {
		for _, acc := range []ObservationConsumer{aoeAcc, azAcc, laAcc, suAcc, dsAcc} {
			if err := acc.Add(o); err != nil {
				t.Fatal(err)
			}
		}
	}

	aoeB, err := AnalyzeAOE(obs, 27)
	if err != nil {
		t.Fatal(err)
	}
	aoeS, err := aoeAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aoeS, aoeB) {
		t.Error("AOE accumulator diverges from batch")
	}

	azB, err := AnalyzeAzimuth(obs, 27)
	if err != nil {
		t.Fatal(err)
	}
	azS, err := azAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(azS, azB) {
		t.Error("azimuth accumulator diverges from batch")
	}

	laB, err := AnalyzeLaunch(obs, "New York")
	if err != nil {
		t.Fatal(err)
	}
	laS, err := laAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(laS, laB) {
		t.Error("launch accumulator diverges from batch")
	}

	suB, err := AnalyzeSunlit(obs, 27)
	if err != nil {
		t.Fatal(err)
	}
	suS, err := suAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(suS, suB) {
		t.Error("sunlit accumulator diverges from batch")
	}

	dsB, err := BuildDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	dsS, err := dsAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dsS, dsB) {
		t.Error("dataset builder diverges from batch")
	}
}

// TestAccumulatorErrorParity keeps the historical batch error messages
// on empty and all-unidentified streams.
func TestAccumulatorErrorParity(t *testing.T) {
	finalizers := map[string]func() error{
		"aoe": func() error { _, err := NewAOEAccumulator(9).Finalize(); return err },
		"az":  func() error { _, err := NewAzimuthAccumulator(9).Finalize(); return err },
		"la":  func() error { _, err := NewLaunchAccumulator().Finalize(); return err },
		"su":  func() error { _, err := NewSunlitAccumulator(9).Finalize(); return err },
	}
	for name, f := range finalizers {
		if err := f(); err == nil || !strings.Contains(err.Error(), "no observations") {
			t.Errorf("%s: empty finalize error = %v", name, err)
		}
	}
	noChosen := Observation{Terminal: "x", Available: []SatObs{{ID: 1}}, ChosenIdx: -1}
	acc := NewAOEAccumulator(9)
	if err := acc.Add(noChosen); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Finalize(); err == nil || !strings.Contains(err.Error(), "identified chosen") {
		t.Errorf("all-unidentified finalize error = %v", err)
	}
	b := NewDatasetBuilder()
	if _, err := b.Finalize(); err == nil || !strings.Contains(err.Error(), "no usable observations") {
		t.Errorf("empty dataset finalize error = %v", err)
	}
	// A chosen observation with an empty available set is a data bug:
	// Add must surface it, not panic downstream.
	if err := b.Add(Observation{Terminal: "x", ChosenIdx: 0}); err != nil {
		t.Error("ChosenIdx beyond empty available should be skipped (Chosen() is false), got", err)
	}
}

// The slice-fed analyses this package's tests use: each feeds a fixture
// slice through the matching accumulator.

func AnalyzeAOE(obs []Observation, cdfPoints int) (*AOEAnalysis, error) {
	acc := NewAOEAccumulator(cdfPoints)
	feedAll(acc, obs)
	return acc.Finalize()
}

func AnalyzeAzimuth(obs []Observation, cdfPoints int) (*AzimuthAnalysis, error) {
	acc := NewAzimuthAccumulator(cdfPoints)
	feedAll(acc, obs)
	return acc.Finalize()
}

func AnalyzeLaunch(obs []Observation, excluded ...string) (*LaunchAnalysis, error) {
	acc := NewLaunchAccumulator(excluded...)
	feedAll(acc, obs)
	return acc.Finalize()
}

func AnalyzeSunlit(obs []Observation, cdfPoints int) (*SunlitAnalysis, error) {
	acc := NewSunlitAccumulator(cdfPoints)
	feedAll(acc, obs)
	return acc.Finalize()
}

// feedAll pushes a slice through a §5 accumulator, whose Add never
// errors.
func feedAll(acc ObservationConsumer, obs []Observation) {
	for i := range obs {
		_ = acc.Add(obs[i])
	}
}

// BuildDataset feeds a slice through a DatasetBuilder.
func BuildDataset(obs []Observation) (*ml.Dataset, error) {
	b := NewDatasetBuilder()
	for i := range obs {
		if err := b.Add(obs[i]); err != nil {
			return nil, err
		}
	}
	return b.Finalize()
}
