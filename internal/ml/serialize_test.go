package ml

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestForestSaveLoadRoundTrip(t *testing.T) {
	d := gaussDataset(200, 30)
	f1, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 8, Tree: TreeConfig{MaxDepth: 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := LoadForestFor(&buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumTrees() != f1.NumTrees() {
		t.Fatalf("tree count %d != %d", f2.NumTrees(), f1.NumTrees())
	}
	// Identical predictions on every training row.
	for i, x := range d.X {
		p1, err1 := f1.PredictProba(x)
		p2, err2 := f2.PredictProba(x)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("row %d class %d: %v != %v", i, j, p1[j], p2[j])
			}
		}
	}
	// Importances survive.
	i1, i2 := f1.Importance(), f2.Importance()
	for j := range i1 {
		if i1[j] != i2[j] {
			t.Fatalf("importance %d: %v != %v", j, i1[j], i2[j])
		}
	}
}

func TestLoadForestRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":99,"num_classes":2,"num_features":1,"trees":[{"nodes":[{"f":-1,"p":[1,0]}]}]}`,
		`{"version":1,"num_classes":0,"num_features":1,"trees":[{"nodes":[{"f":-1,"p":[]}]}]}`,
		`{"version":1,"num_classes":2,"num_features":1,"trees":[]}`,
		// leaf with wrong prob arity
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":-1,"p":[1]}]}]}`,
		// split referencing missing feature
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":5,"l":0,"r":0}]}]}`,
		// self-referential node
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":0,"l":0,"r":0}]}]}`,
		// out-of-range child
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":0,"l":1,"r":9}]}]}`,
		// empty tree
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[]}]}`,
		// importance arity mismatch
		`{"version":1,"num_classes":2,"num_features":2,"trees":[{"importance":[0],"nodes":[{"f":-1,"p":[1,0]}]}]}`,
	}
	for i, c := range cases {
		if _, err := LoadForestFor(strings.NewReader(c), 0, 0); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLoadedForestStillRanks(t *testing.T) {
	d := gaussDataset(150, 31)
	f, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadForestFor(&buf, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := TopKAccuracy(ForestRanker{loaded}, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("loaded forest accuracy %v", acc)
	}
}
