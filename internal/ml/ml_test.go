package ml

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// xorDataset is learnable by a depth-2 tree but not by any single
// split: y = (x0 > 0.5) XOR (x1 > 0.5).
func xorDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{NumClasses: 2}
	for i := 0; i < n; i++ {
		x0 := rng.Float64()
		x1 := rng.Float64()
		y := 0
		if (x0 > 0.5) != (x1 > 0.5) {
			y = 1
		}
		d.X = append(d.X, []float64{x0, x1})
		d.Y = append(d.Y, y)
	}
	return d
}

// gaussDataset: three well-separated Gaussian blobs, 4 features of
// which only the first two are informative.
func gaussDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := [][2]float64{{0, 0}, {6, 0}, {0, 6}}
	d := &Dataset{NumClasses: 3}
	for i := 0; i < n; i++ {
		c := i % 3
		d.X = append(d.X, []float64{
			centers[c][0] + rng.NormFloat64(),
			centers[c][1] + rng.NormFloat64(),
			rng.NormFloat64(), // noise
			rng.NormFloat64(), // noise
		})
		d.Y = append(d.Y, c)
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, 1}, NumClasses: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Dataset{
		{},
		{X: [][]float64{{1}}, Y: []int{0, 1}, NumClasses: 2},
		{X: [][]float64{{1}, {2}}, Y: []int{0, 1}, NumClasses: 0},
		{X: [][]float64{{1}, {2, 3}}, Y: []int{0, 1}, NumClasses: 2},
		{X: [][]float64{{1}, {2}}, Y: []int{0, 5}, NumClasses: 2},
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

// TestDatasetValidateRejectsNonFinite: NaN and ±Inf features are
// rejected with the row and feature named, by Validate and by both fit
// entry points.
func TestDatasetValidateRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := gaussDataset(30, 8)
		d.X[7][2] = v
		err := d.Validate()
		if err == nil {
			t.Fatalf("%v: validated", v)
		}
		if !strings.Contains(err.Error(), "row 7 feature 2") {
			t.Errorf("%v: error %q does not name row 7 feature 2", v, err)
		}
		if _, err := FitTree(d, TreeConfig{}, nil); err == nil {
			t.Errorf("%v: FitTree accepted", v)
		}
		if _, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 2, Seed: 1}); err == nil {
			t.Errorf("%v: FitForest accepted", v)
		}
	}
	// Extreme finite values and signed zeros stay valid.
	d := &Dataset{X: [][]float64{{math.MaxFloat64}, {-math.MaxFloat64}, {math.Copysign(0, -1)}}, Y: []int{0, 1, 0}, NumClasses: 2}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	d := xorDataset(400, 1)
	tree, err := FitTree(d, TreeConfig{MaxDepth: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	test := xorDataset(200, 2)
	correct := 0
	for i, x := range test.X {
		y, err := tree.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if y == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test.X)); acc < 0.95 {
		t.Errorf("XOR accuracy = %v", acc)
	}
	if tree.NumNodes() < 3 {
		t.Errorf("tree has %d nodes", tree.NumNodes())
	}
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	d := &Dataset{
		X:          [][]float64{{1}, {2}, {3}},
		Y:          []int{1, 1, 1},
		NumClasses: 2,
	}
	tree, err := FitTree(d, TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 {
		t.Errorf("pure dataset grew %d nodes", tree.NumNodes())
	}
	p, err := tree.PredictProba([]float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if p[1] != 1 {
		t.Errorf("probs = %v", p)
	}
}

func TestTreeMaxDepth(t *testing.T) {
	d := gaussDataset(300, 3)
	stump, err := FitTree(d, TreeConfig{MaxDepth: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 1 => at most 3 nodes (root + 2 leaves).
	if stump.NumNodes() > 3 {
		t.Errorf("depth-1 tree has %d nodes", stump.NumNodes())
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	d := gaussDataset(60, 4)
	tree, err := FitTree(d, TreeConfig{MinSamplesLeaf: 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With 60 rows and min leaf 25, at most one split is possible.
	if tree.NumNodes() > 3 {
		t.Errorf("min-leaf tree has %d nodes", tree.NumNodes())
	}
}

func TestTreeFeatureSubsamplingNeedsRNG(t *testing.T) {
	d := gaussDataset(50, 5)
	if _, err := FitTree(d, TreeConfig{MaxFeatures: 1}, nil); err == nil {
		t.Error("subsampling without rng accepted")
	}
	if _, err := FitTree(d, TreeConfig{MaxFeatures: 1}, rand.New(rand.NewSource(1))); err != nil {
		t.Errorf("subsampling with rng failed: %v", err)
	}
}

func TestTreePredictWrongWidth(t *testing.T) {
	d := gaussDataset(50, 6)
	tree, err := FitTree(d, TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([]float64{1}); err == nil {
		t.Error("wrong-width input accepted")
	}
}

func TestTreeImportanceInformativeFeatures(t *testing.T) {
	d := gaussDataset(600, 7)
	tree, err := FitTree(d, TreeConfig{MaxDepth: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.Importance()
	if len(imp) != 4 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sums to %v", sum)
	}
	// Features 0 and 1 carry all the signal.
	if imp[0]+imp[1] < 0.9 {
		t.Errorf("informative features importance = %v", imp)
	}
}

func TestForestBeatsOrMatchesTreeOnGauss(t *testing.T) {
	train := gaussDataset(500, 8)
	test := gaussDataset(300, 9)
	forest, err := FitForestCtx(context.Background(), train, ForestConfig{NumTrees: 30, Tree: TreeConfig{MaxDepth: 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := TopKAccuracy(ForestRanker{forest}, test, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("forest accuracy = %v", acc)
	}
	if forest.NumTrees() != 30 {
		t.Errorf("NumTrees = %d", forest.NumTrees())
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	d := gaussDataset(200, 10)
	forest, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p, err := forest.PredictProba(d.X[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	d := gaussDataset(200, 11)
	f1, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		p1, _ := f1.PredictProba(d.X[i])
		p2, _ := f2.PredictProba(d.X[i])
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("row %d class %d: %v != %v", i, j, p1[j], p2[j])
			}
		}
	}
}

func TestTopKOf(t *testing.T) {
	p := []float64{0.1, 0.5, 0.2, 0.2}
	top := TopKOf(p, 2)
	if top[0] != 1 {
		t.Errorf("top[0] = %d", top[0])
	}
	// Tie between 2 and 3 breaks to lower index.
	if top[1] != 2 {
		t.Errorf("top[1] = %d", top[1])
	}
	if got := TopKOf(p, 0); len(got) != 4 {
		t.Errorf("k=0 gives %d", len(got))
	}
	if got := TopKOf(p, 99); len(got) != 4 {
		t.Errorf("k=99 gives %d", len(got))
	}
}

func TestTopKAccuracyMonotoneInK(t *testing.T) {
	d := gaussDataset(300, 12)
	forest, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := TopKCurve(ForestRanker{forest}, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Errorf("curve not monotone: %v", curve)
		}
	}
	// k = numClasses must be 100%.
	if curve[2] != 1 {
		t.Errorf("top-3 of 3 classes = %v", curve[2])
	}
	// Consistency with single-k calls.
	acc1, err := TopKAccuracy(ForestRanker{forest}, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc1-curve[0]) > 1e-12 {
		t.Errorf("TopKAccuracy(1) = %v, curve[0] = %v", acc1, curve[0])
	}
}

func TestTopKAccuracyErrors(t *testing.T) {
	d := gaussDataset(50, 13)
	forest, _ := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 2, Seed: 1})
	if _, err := TopKAccuracy(ForestRanker{forest}, d, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopKCurve(ForestRanker{forest}, d, 0); err == nil {
		t.Error("maxK=0 accepted")
	}
}

func TestTrainTestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train, test, err := TrainTestSplit(100, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(test) != 20 || len(train) != 80 {
		t.Errorf("split sizes %d/%d", len(train), len(test))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		if seen[i] {
			t.Fatalf("index %d duplicated", i)
		}
		seen[i] = true
	}
	if len(seen) != 100 {
		t.Errorf("covered %d indices", len(seen))
	}
	if _, _, err := TrainTestSplit(1, 0.2, rng); err == nil {
		t.Error("n=1 accepted")
	}
	if _, _, err := TrainTestSplit(10, 0, rng); err == nil {
		t.Error("frac=0 accepted")
	}
}

func TestStratifiedKFold(t *testing.T) {
	d := gaussDataset(90, 14) // 30 per class
	rng := rand.New(rand.NewSource(5))
	folds, err := StratifiedKFold(d, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	total := 0
	for _, f := range folds {
		total += len(f)
		// Each fold should hold ~6 of each class (90/5/3).
		counts := map[int]int{}
		for _, i := range f {
			counts[d.Y[i]]++
		}
		for c, n := range counts {
			if n < 4 || n > 8 {
				t.Errorf("fold has %d of class %d", n, c)
			}
		}
	}
	if total != 90 {
		t.Errorf("folds cover %d rows", total)
	}
	if _, err := StratifiedKFold(d, 1, rng); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestCrossValidateForest(t *testing.T) {
	d := gaussDataset(150, 15)
	score := crossValidate(t, d, ForestConfig{NumTrees: 10, Tree: TreeConfig{MaxDepth: 5}, Seed: 7}, 3, 6, 0)
	if score < 0.85 {
		t.Errorf("CV score = %v", score)
	}
}

// crossValidate returns the top-1 cross-validated score of one forest
// config over k stratified folds drawn from seed: a one-point
// GridSearchCtx on a pool of the given size.
func crossValidate(t *testing.T, d *Dataset, cfg ForestConfig, k int, seed int64, workers int) float64 {
	t.Helper()
	points, err := GridSearchCtx(context.Background(), d, []ForestConfig{cfg}, k, 1, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return points[0].Score
}

func TestGridSearchPicksReasonableConfig(t *testing.T) {
	d := gaussDataset(200, 16)
	grid := []ForestConfig{
		{NumTrees: 1, Tree: TreeConfig{MaxDepth: 1}, Seed: 1},  // weak
		{NumTrees: 15, Tree: TreeConfig{MaxDepth: 6}, Seed: 1}, // strong
	}
	points, err := GridSearchCtx(context.Background(), d, grid, 3, 1, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d grid points", len(points))
	}
	if points[0].Score < points[1].Score {
		t.Error("grid not sorted by score")
	}
	if points[0].Config.NumTrees != 15 {
		t.Errorf("grid search picked the weak config: %+v", points[0])
	}
	if _, err := GridSearchCtx(context.Background(), d, nil, 3, 1, 0, 0); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestForestImportanceSums(t *testing.T) {
	d := gaussDataset(300, 17)
	forest, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 10, Tree: TreeConfig{MaxDepth: 5}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	imp := forest.Importance()
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("forest importance sums to %v", sum)
	}
	ranking := TopKOf(forest.Importance(), 0)
	if ranking[0] != 0 && ranking[0] != 1 {
		t.Errorf("most important feature = %d, want 0 or 1", ranking[0])
	}
}

func TestRankerFunc(t *testing.T) {
	r := RankerFunc(func(x []float64) ([]int, error) { return []int{2, 1, 0}, nil })
	d := &Dataset{X: [][]float64{{0}}, Y: []int{2}, NumClasses: 3}
	acc, err := TopKAccuracy(r, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("acc = %v", acc)
	}
}

func BenchmarkForestFit(b *testing.B) {
	d := gaussDataset(300, 18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 10, Tree: TreeConfig{MaxDepth: 6}, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForestFitWorkers trains a paper-shaped forest (100 trees) at a
// fixed worker count; compare Serial vs Parallel ns/op for the pool
// speedup (the forests are bit-identical).
func benchForestFitWorkers(b *testing.B, workers int) {
	d := gaussDataset(600, 18)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 100, Tree: TreeConfig{MaxDepth: 10}, Seed: 7, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestFitSerial(b *testing.B)   { benchForestFitWorkers(b, 1) }
func BenchmarkForestFitParallel(b *testing.B) { benchForestFitWorkers(b, 0) }

// BenchmarkForestFitFeatureShape fits one serial online refit at the
// §6 shape: ~1,550 window rows, 251 sparse count columns, 250 classes
// with ~30 present, 30 trees of depth 10.
func BenchmarkForestFitFeatureShape(b *testing.B) {
	d := featureShapeDataset(rand.New(rand.NewSource(18)), 1550)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 30, Tree: TreeConfig{MaxDepth: 10}, Seed: int64(i), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	d := gaussDataset(300, 19)
	forest, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 50, Tree: TreeConfig{MaxDepth: 6}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forest.PredictProba(d.X[i%len(d.X)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestPredictBatch is the zero-allocation batch path
// TopKAccuracy/TopKCurve evaluate through: probabilities and ranking
// land in caller scratch (0 allocs/op).
func BenchmarkForestPredictBatch(b *testing.B) {
	d := gaussDataset(300, 19)
	forest, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 50, Tree: TreeConfig{MaxDepth: 6}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	probs := make([]float64, forest.NumClasses())
	idx := make([]int, forest.NumClasses())
	ranker := ForestRanker{forest}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ranker.RankClassesInto(d.X[i%len(d.X)], probs, idx); err != nil {
			b.Fatal(err)
		}
	}
}

// PredictProba returns the class distribution for one feature vector.
func (t *Tree) PredictProba(x []float64) ([]float64, error) {
	if len(x) != t.numFeatures {
		return nil, fmt.Errorf("ml: input has %d features, tree trained on %d", len(x), t.numFeatures)
	}
	p := make([]float64, t.numClasses)
	t.denseLeaf(t.leaf(x), p)
	return p, nil
}

// Predict returns the most probable class.
func (t *Tree) Predict(x []float64) (int, error) {
	p, err := t.PredictProba(x)
	if err != nil {
		return 0, err
	}
	return argmax(p), nil
}

// NumNodes reports tree size.
func (t *Tree) NumNodes() int { return len(t.nodes) }

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
