// Model: the paper's §6 pipeline. Gather chosen-vs-available
// observations from a measurement campaign, build z-score cluster
// features, train a random forest to predict the cluster of the
// satellite the global scheduler will pick, and compare its top-k
// accuracy against the most-populated-cluster baseline (Figure 8).
//
//	go run ./examples/model
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/scenario"
)

func main() {
	spec, err := scenario.Starlink("medium", 21)
	if err != nil {
		log.Fatal(err)
	}
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		log.Fatal(err)
	}
	env := built.Env
	fmt.Printf("constellation: %d satellites\n", env.Cons.Len())

	fmt.Println("collecting observations (350 slots x 4 terminals)...")
	obs, err := env.Observations(350)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d usable slot observations\n\n", len(obs))

	// Peek at one observation's features: the model sees the local hour
	// plus how many available satellites fall in each z-score cluster.
	o := obs[0]
	sats := make([]features.Sat, len(o.Available))
	for i, a := range o.Available {
		sats[i] = features.Sat{AzimuthDeg: a.AzimuthDeg, ElevationDeg: a.ElevationDeg, AgeYears: a.AgeYears, Sunlit: a.Sunlit}
	}
	var slot features.Slot
	if err := features.ClusterInto(&slot, sats); err != nil {
		log.Fatal(err)
	}
	chosen, _ := o.Chosen()
	key, _ := slot.KeyOf(o.ChosenIdx)
	fmt.Printf("example slot at %s, local hour %d: %d available satellites\n",
		o.Terminal, o.LocalHour, len(o.Available))
	fmt.Printf("chosen satellite %d at elevation %.1f -> cluster %s\n\n", chosen.ID, chosen.ElevationDeg, key)

	// Train with the paper's protocol: 80/20 split, grid search with
	// cross-validation, holdout evaluation.
	d, err := core.BuildDataset(obs)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.TrainModel(d, experiments.QuickModelConfig(21))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d rows, held out %d\n", res.TrainRows, res.HoldoutRows)
	fmt.Println("k   model    baseline")
	for k := range res.ModelTopK {
		fmt.Printf("%d   %5.1f%%   %5.1f%%\n", k+1, res.ModelTopK[k]*100, res.BaselineTopK[k]*100)
	}
	fmt.Println("\ntop gini importances:")
	for i, fi := range res.Importances {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-14s %.4f\n", fi.Name, fi.Importance)
	}
	fmt.Println("\n(paper: 65% top-5 vs 22% baseline; high-AOE clusters and local_hour dominate)")

	// Use the trained model the way a downstream system would: predict
	// the characteristics of the next allocation for a fresh slot.
	pred, err := core.PredictAllocation(res.Forest, &obs[len(obs)-1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredicted top-3 clusters for a fresh slot: %s %s %s\n", pred[0], pred[1], pred[2])
}
