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
	"repro/internal/predict"
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
	fmt.Printf("constellation: %d satellites\n", built.Env.Cons.Len())

	fmt.Println("collecting observations (350 slots x 4 terminals)...")
	ds := core.NewDatasetBuilder()
	var o *core.Observation // the first usable one, to show what a row is made of
	st, err := built.Env.StreamObservations(350, ds.Add, func(obs core.Observation) error {
		if o == nil {
			// The campaign reuses obs.Available after this call returns.
			c := obs.Clone()
			o = &c
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d usable slot observations\n\n", st.Served)
	d, err := ds.Finalize()
	if err != nil {
		log.Fatal(err)
	}

	// Peek at that observation's row: the model sees the local hour plus
	// how many available satellites fall in each z-score cluster, and
	// learns the chosen satellite's cluster.
	chosen, _ := o.Chosen()
	key, _ := features.KeyFromIndex(d.Y[0])
	fmt.Printf("example slot at %s, local hour %d: %d available satellites\n", o.Terminal, o.LocalHour, len(o.Available))
	fmt.Printf("chosen satellite %d at elevation %.1f -> cluster %s\n\n", chosen.ID, chosen.ElevationDeg, key)

	// Train with the paper's protocol: 80/20 split, grid search with
	// cross-validation, holdout evaluation.
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

	// Use the trained model the way a downstream system would: serve
	// it as predictd does and rank the clusters of the example slot's
	// available set, most likely first.
	svc, err := predict.NewService(predict.Config{})
	if err != nil {
		log.Fatal(err)
	}
	if err := svc.SetModel(res.Forest); err != nil {
		log.Fatal(err)
	}
	sc := predict.NewScratch()
	if _, err := svc.Rank(o.LocalHour, o.AppendSats(nil), sc); err != nil {
		log.Fatal(err)
	}
	var pred [3]features.Key
	for i := range pred {
		if pred[i], err = features.KeyFromIndex(sc.Ranked()[i]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\npredicted top-3 clusters for the example slot: %s %s %s (chosen: %s)\n", pred[0], pred[1], pred[2], key)
}
