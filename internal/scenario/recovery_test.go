package scenario_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// TestPlantedPreferenceRecovery is the generalization payoff asserted
// pass/fail: a Walker-star scenario (OneWeb geometry the study never
// measured) plants preference weights elevation > sunlit > recency,
// and the paper's inference pipeline — behavioral effects plus the §6
// forest — must recover that ordering from chosen-vs-available
// observations alone, with the forest beating the availability
// baseline.
func TestPlantedPreferenceRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a forest on a 648-satellite campaign")
	}
	spec, err := scenario.LoadPreset("oneweb-star")
	if err != nil {
		t.Fatal(err)
	}
	spec.Campaign.Slots = 240 // the preset's 400 recovers too; 240 keeps CI fast
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ranks scenario.RecoveryRanks
	ds := core.NewDatasetBuilder()
	if _, err := built.Env.StreamObservations(built.Slots, ranks.Add, ds.Add); err != nil {
		t.Fatal(err)
	}
	d, err := ds.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	planted, ok := spec.PlantedWeights()
	if !ok {
		t.Fatal("oneweb-star preset lost its planted weights")
	}
	res, err := scenario.RunPreferenceRecovery(context.Background(), &ranks, d,
		planted, experiments.QuickModelConfig(spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rows=%d planted=%v", res.Rows, res.PlantedOrder)
	t.Logf("observed effects=%v order=%v", res.ObservedEffects, res.ObservedOrder)
	t.Logf("forest effects=%v order=%v", res.ForestEffects, res.ForestOrder)
	t.Logf("model top-1 %.3f vs baseline %.3f", res.ModelTop1, res.BaselineTop1)

	if !res.ObservedOrderRecovered {
		t.Errorf("behavioral effects %v did not recover planted order %v", res.ObservedOrder, res.PlantedOrder)
	}
	if !res.OrderRecovered {
		t.Errorf("forest order %v did not recover planted order %v", res.ForestOrder, res.PlantedOrder)
	}
	if !res.ModelBeatsBaseline {
		t.Errorf("forest top-1 %.3f does not beat baseline %.3f", res.ModelTop1, res.BaselineTop1)
	}
	// The planted dominant axis must stand out, not win by a hair.
	if res.ObservedEffects["elevation"] < 2*res.ObservedEffects["sunlit"] {
		t.Errorf("elevation effect %.3f not well separated from sunlit %.3f",
			res.ObservedEffects["elevation"], res.ObservedEffects["sunlit"])
	}
}
