package ml

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
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
		// leaf with wrong prob arity, short and long
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":-1,"p":[1]}]}]}`,
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":-1,"p":[0,1,0]}]}]}`,
		// leaf with no probs at all
		`{"version":1,"num_classes":2,"num_features":1,"trees":[{"importance":[0],"nodes":[{"f":-1}]}]}`,
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

// TestSparseLeavesRoundTrip: a forest at the §6 shape, whose leaves
// hold only their non-zero classes, saves every leaf dense, loads back to the same sparse leaves,
// and saves the same bytes again; its predictions equal the plain sum
// of every tree's dense leaf distribution on every row.
func TestSparseLeavesRoundTrip(t *testing.T) {
	d := featureShapeDataset(rand.New(rand.NewSource(62)), 200)
	f, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 6, Tree: TreeConfig{MaxDepth: 6}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := f.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadForestFor(bytes.NewReader(first.Bytes()), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save, load, save changed the bytes")
	}
	for i, tr := range f.trees {
		lt := loaded.trees[i]
		if !reflect.DeepEqual(tr.nodes, lt.nodes) || !reflect.DeepEqual(tr.leafCls, lt.leafCls) || !reflect.DeepEqual(tr.leafP, lt.leafP) {
			t.Fatalf("tree %d: loaded leaves differ from the fitted ones", i)
		}
		for _, nd := range tr.nodes {
			for j := nd.left; nd.feature < 0 && j < nd.right; j++ {
				if tr.leafP[j] == 0 || (j > nd.left && tr.leafCls[j] <= tr.leafCls[j-1]) {
					t.Fatalf("tree %d: leaf entries %v %v are not the non-zero classes, ascending",
						i, tr.leafCls[nd.left:nd.right], tr.leafP[nd.left:nd.right])
				}
			}
		}
	}
	got := make([]float64, f.numClasses)
	dense := make([]float64, f.numClasses)
	for r, x := range d.X {
		want := make([]float64, f.numClasses)
		for _, tr := range f.trees {
			tr.denseLeaf(tr.leaf(x), dense)
			for c, v := range dense {
				want[c] += v
			}
		}
		for c := range want {
			want[c] /= float64(len(f.trees))
		}
		for _, ff := range []*Forest{f, loaded} {
			if err := ff.PredictProbaInto(x, got); err != nil {
				t.Fatal(err)
			}
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("row %d class %d: sparse sum %v, dense sum %v", r, c, got[c], want[c])
				}
			}
		}
	}
}
