package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestAccumulatorsMatchBatch proves each incremental accumulator,
// fed one observation at a time, reproduces the batch analyzer's
// output exactly (reflect.DeepEqual covers every float bit).
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
