package ml

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// ---------------------------------------------------------------------
// Reference engine: the seed's sort-per-node CART builder, transcribed
// verbatim. The production rank-bucket engine must reproduce its trees
// bit for bit; these tests hold the two together on randomized inputs.
// ---------------------------------------------------------------------

type refBuilder struct {
	d     *Dataset
	cfg   TreeConfig
	rng   *rand.Rand
	t     *Tree
	total float64
}

func refFitTree(d *Dataset, cfg TreeConfig, rng *rand.Rand) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	numFeatures := len(d.X[0])
	cfg = cfg.normalized(numFeatures)
	if cfg.MaxFeatures < numFeatures && rng == nil {
		return nil, nil
	}
	t := &Tree{
		numClasses:  d.NumClasses,
		numFeatures: numFeatures,
		importance:  make([]float64, numFeatures),
	}
	idx := make([]int, len(d.X))
	for i := range idx {
		idx[i] = i
	}
	b := &refBuilder{d: d, cfg: cfg, rng: rng, t: t, total: float64(len(idx))}
	b.grow(idx, 0)
	return t, nil
}

func (b *refBuilder) classCounts(idx []int) []float64 {
	counts := make([]float64, b.d.NumClasses)
	for _, i := range idx {
		counts[b.d.Y[i]]++
	}
	return counts
}

func (b *refBuilder) grow(idx []int, depth int) int32 {
	counts := b.classCounts(idx)
	n := float64(len(idx))

	makeLeaf := func() int32 {
		probs := make([]float64, len(counts))
		for i, c := range counts {
			probs[i] = c / n
		}
		b.t.addLeaf(probs)
		return int32(len(b.t.nodes) - 1)
	}

	if len(idx) < b.cfg.MinSamplesSplit ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) ||
		refPure(counts) {
		return makeLeaf()
	}

	feature, threshold, gain := b.bestSplit(idx, counts, n)
	if feature < 0 {
		return makeLeaf()
	}

	var left, right []int
	for _, i := range idx {
		if b.d.X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		return makeLeaf()
	}

	b.t.importance[feature] += n / b.total * gain

	me := int32(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, node{feature: feature, threshold: threshold})
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.t.nodes[me].left = l
	b.t.nodes[me].right = r
	return me
}

func (b *refBuilder) bestSplit(idx []int, parentCounts []float64, n float64) (int, float64, float64) {
	parentGini := refGini(parentCounts, n)
	bestFeature := -1
	bestThreshold := 0.0
	bestGain := 1e-12

	features := b.sampleFeatures()
	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, len(idx))
	leftCounts := make([]float64, b.d.NumClasses)

	for _, f := range features {
		for i, r := range idx {
			pairs[i] = pair{v: b.d.X[r][f], y: b.d.Y[r]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue
		}
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		rightCounts := append([]float64(nil), parentCounts...)
		for i := 0; i < len(pairs)-1; i++ {
			leftCounts[pairs[i].y]++
			rightCounts[pairs[i].y]--
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nl := float64(i + 1)
			nr := n - nl
			if int(nl) < b.cfg.MinSamplesLeaf || int(nr) < b.cfg.MinSamplesLeaf {
				continue
			}
			g := parentGini - (nl/n)*refGini(leftCounts, nl) - (nr/n)*refGini(rightCounts, nr)
			if g > bestGain {
				bestGain = g
				bestFeature = f
				bestThreshold = (pairs[i].v + pairs[i+1].v) / 2
			}
		}
	}
	return bestFeature, bestThreshold, bestGain
}

// refGini is the seed's impurity: every class, ascending.
func refGini(counts []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

func refPure(counts []float64) bool {
	seen := false
	for _, c := range counts {
		if c > 0 {
			if seen {
				return false
			}
			seen = true
		}
	}
	return true
}

func (b *refBuilder) sampleFeatures() []int {
	nf := b.t.numFeatures
	if b.cfg.MaxFeatures >= nf {
		out := make([]int, nf)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return b.rng.Perm(nf)[:b.cfg.MaxFeatures]
}

// randomDataset draws a tie-heavy random dataset: values rounded to one
// decimal so equal feature values (several samples in one rank bucket)
// occur constantly.
func randomDataset(rng *rand.Rand, n, nf, nc int) *Dataset {
	d := &Dataset{NumClasses: nc}
	for i := 0; i < n; i++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = math.Round(rng.Float64()*40) / 10
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, rng.Intn(nc))
	}
	return d
}

func treesEqual(t *testing.T, got, want *Tree) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) {
		t.Fatalf("node count %d, want %d", len(got.nodes), len(want.nodes))
	}
	gp, wp := make([]float64, got.numClasses), make([]float64, want.numClasses)
	for i := range got.nodes {
		g, w := &got.nodes[i], &want.nodes[i]
		if g.feature < 0 && w.feature < 0 {
			got.denseLeaf(g, gp)
			want.denseLeaf(w, wp)
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("leaf %d probs %v, want %v", i, gp, wp)
			}
			continue
		}
		if g.feature != w.feature || g.threshold != w.threshold || g.left != w.left || g.right != w.right {
			t.Fatalf("node %d: {f:%d t:%v l:%d r:%d}, want {f:%d t:%v l:%d r:%d}",
				i, g.feature, g.threshold, g.left, g.right, w.feature, w.threshold, w.left, w.right)
		}
	}
	if !reflect.DeepEqual(got.importance, want.importance) {
		t.Fatalf("importance %v, want %v", got.importance, want.importance)
	}
}

// TestBestSplitPresortIdentical holds the rank-bucket split finder
// (ranks from the once-per-fit presort, one histogram pass per node and
// feature) to the sort-per-node reference at the root of randomized,
// tie-heavy datasets: same (feature, threshold, gain) bit for bit.
func TestBestSplitPresortIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(120)
		nf := 1 + rng.Intn(6)
		nc := 2 + rng.Intn(4)
		d := randomDataset(rng, n, nf, nc)
		cfg := TreeConfig{MinSamplesLeaf: 1 + rng.Intn(3)}.normalized(nf)

		ref := &refBuilder{d: d, cfg: cfg, t: &Tree{numFeatures: nf}, total: float64(n)}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		counts := ref.classCounts(idx)
		wf, wt, wg := ref.bestSplit(idx, counts, float64(n))

		b := &treeBuilder{}
		b.fc, b.cfg, b.t = newFitContext(d), cfg, &Tree{numFeatures: nf}
		b.reset(nil)
		gf, gt, gg := b.bestSplit(0, int32(n), counts, float64(n))

		if gf != wf || gt != wt || gg != wg {
			t.Fatalf("trial %d (n=%d nf=%d nc=%d): presort (%d, %v, %v), reference (%d, %v, %v)",
				trial, n, nf, nc, gf, gt, gg, wf, wt, wg)
		}
	}
}

// TestFitTreePresortIdentical grows whole trees both ways — including
// feature subsampling fed by identical rng streams — and requires
// node-for-node equality on narrow data, where most features are
// sampled at every node.
func TestFitTreePresortIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(150)
		nf := 2 + rng.Intn(6)
		nc := 2 + rng.Intn(4)
		d := randomDataset(rng, n, nf, nc)
		cfg := TreeConfig{
			MaxDepth:        rng.Intn(10),
			MinSamplesLeaf:  1 + rng.Intn(3),
			MinSamplesSplit: rng.Intn(6),
			MaxFeatures:     []int{0, -1, 1 + rng.Intn(nf)}[rng.Intn(3)],
		}
		seed := rng.Int63()
		want, err := refFitTree(d, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := FitTree(d, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, got, want)
	}
}

// TestForestFitParallelIdentical trains the same forest at Workers 1,
// 2, 4, and GOMAXPROCS and requires bit-identical trees,
// probabilities, and importances — the determinism contract the
// campaign engine set and FitForestCtx inherits.
func TestForestFitParallelIdentical(t *testing.T) {
	d := gaussDataset(240, 21)
	base := ForestConfig{NumTrees: 24, Tree: TreeConfig{MaxDepth: 9}, Seed: 5, Workers: 1}
	want, err := FitForestCtx(context.Background(), d, base)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := forestFingerprint(t, want)
	wantImp := want.Importance()
	for _, workers := range []int{2, 4, 0} {
		cfg := base
		cfg.Workers = workers
		got, err := FitForestCtx(context.Background(), d, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fp := forestFingerprint(t, got); fp != wantFP {
			t.Errorf("workers=%d: fingerprint %s, want %s", workers, fp, wantFP)
		}
		if imp := got.Importance(); !reflect.DeepEqual(imp, wantImp) {
			t.Errorf("workers=%d: importance diverged", workers)
		}
		for i := 0; i < 40; i++ {
			p1, err1 := want.PredictProba(d.X[i])
			p2, err2 := got.PredictProba(d.X[i])
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("workers=%d row %d: %v != %v", workers, i, p1, p2)
			}
		}
	}
}

// TestFitForestCtxCancel: a canceled context aborts training.
func TestFitForestCtxCancel(t *testing.T) {
	d := gaussDataset(100, 22)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := FitForestCtx(ctx, d, ForestConfig{NumTrees: 8, Seed: 1, Workers: workers}); err == nil {
			t.Errorf("workers=%d: canceled fit succeeded", workers)
		}
	}
}

// TestCrossValidateForestWeightedMean pins the fold-size weighting: 13
// rows over 3 stratified folds gives 5/4/4 held-out rows, so the CV
// score must be sum(acc_i * size_i) / 13 — not the unweighted mean
// that over-counted the 4-row folds.
func TestCrossValidateForestWeightedMean(t *testing.T) {
	d := gaussDataset(13, 23) // 13 % 3 != 0 forces unequal folds
	// The folds GridSearchCtx draws from seed 9.
	rng := rand.New(rand.NewSource(9))
	folds, err := StratifiedKFold(d, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{len(folds[0]), len(folds[1]), len(folds[2])}
	if sizes[0] == sizes[1] && sizes[1] == sizes[2] {
		t.Fatalf("folds are equal-sized (%v); the regression needs n %% k != 0", sizes)
	}
	cfg := ForestConfig{NumTrees: 5, Tree: TreeConfig{MaxDepth: 4}, Seed: 3, Workers: 1}

	// Expected: per-fold holdout accuracy weighted by held-out size.
	num, den := 0.0, 0.0
	for i := range folds {
		var trainIdx []int
		for j, f := range folds {
			if j != i {
				trainIdx = append(trainIdx, f...)
			}
		}
		forest, err := FitForestCtx(context.Background(), d.Subset(trainIdx), cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := TopKAccuracy(ForestRanker{forest}, d.Subset(folds[i]), 1)
		if err != nil {
			t.Fatal(err)
		}
		num += acc * float64(len(folds[i]))
		den += float64(len(folds[i]))
	}
	want := num / den

	if got := crossValidate(t, d, cfg, 3, 9, 1); got != want {
		t.Errorf("CV score = %v, want fold-size-weighted %v", got, want)
	}
}

// TestCrossValidateForestParallelIdentical: the fold pool must not
// change the score.
func TestCrossValidateForestParallelIdentical(t *testing.T) {
	d := gaussDataset(100, 24)
	cfg := ForestConfig{NumTrees: 8, Tree: TreeConfig{MaxDepth: 5}, Seed: 11}
	want := crossValidate(t, d, cfg, 4, 10, 1)
	for _, workers := range []int{2, 4, 0} {
		if got := crossValidate(t, d, cfg, 4, 10, workers); got != want {
			t.Errorf("workers=%d: score %v, want %v", workers, got, want)
		}
	}
}

// TestGridSearchParallelIdentical: fanning (config, fold) pairs over
// the pool keeps every score and the ranking bitwise stable.
func TestGridSearchParallelIdentical(t *testing.T) {
	d := gaussDataset(120, 25)
	grid := []ForestConfig{
		{NumTrees: 4, Tree: TreeConfig{MaxDepth: 2}, Seed: 1},
		{NumTrees: 10, Tree: TreeConfig{MaxDepth: 6}, Seed: 2},
		{NumTrees: 6, Tree: TreeConfig{MaxDepth: 4}, Seed: 3},
	}
	want, err := GridSearchCtx(context.Background(), d, grid, 3, 1, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		got, err := GridSearchCtx(context.Background(), d, grid, 3, 1, 42, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(stripWorkers(got), stripWorkers(want)) {
			t.Errorf("workers=%d: grid points diverged:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// stripWorkers zeroes the Workers knob grid points echo back, so
// comparisons see only scores and model hyperparameters.
func stripWorkers(points []GridPoint) []GridPoint {
	out := append([]GridPoint(nil), points...)
	for i := range out {
		out[i].Config.Workers = 0
	}
	return out
}

// TestForestPredictProbaInto: the batch path matches PredictProba
// exactly, rejects bad widths at the forest level, and allocates
// nothing per row.
func TestForestPredictProbaInto(t *testing.T) {
	d := gaussDataset(150, 26)
	forest, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, forest.NumClasses())
	idx := make([]int, forest.NumClasses())
	for i := 0; i < 30; i++ {
		want, err := forest.PredictProba(d.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := forest.PredictProbaInto(d.X[i], probs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(probs, want) {
			t.Fatalf("row %d: into=%v, alloc=%v", i, probs, want)
		}
		wantRank := TopKOf(want, 0)
		if err := (ForestRanker{forest}).RankClassesInto(d.X[i], probs, idx); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idx, wantRank) {
			t.Fatalf("row %d: rank into=%v, want %v", i, idx, wantRank)
		}
	}

	if err := forest.PredictProbaInto([]float64{1}, probs); err == nil {
		t.Error("wrong input width accepted")
	}
	if err := forest.PredictProbaInto(d.X[0], make([]float64, 1)); err == nil {
		t.Error("wrong output width accepted")
	}
	if _, err := forest.PredictProba([]float64{1}); err == nil {
		t.Error("forest-level width check missing")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := (ForestRanker{forest}).RankClassesInto(d.X[0], probs, idx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batch predict+rank allocates %v per run, want 0", allocs)
	}
}

// TestTopKEvalFastPathMatchesGeneric: the scratch-based evaluation the
// forest triggers must score exactly like the allocation path a plain
// Ranker takes.
func TestTopKEvalFastPathMatchesGeneric(t *testing.T) {
	d := gaussDataset(200, 27)
	forest, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	generic := RankerFunc(ForestRanker{forest}.RankClasses) // hides the fast path
	for _, k := range []int{1, 2, 3} {
		fast, err := TopKAccuracy(ForestRanker{forest}, d, k)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := TopKAccuracy(generic, d, k)
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Errorf("k=%d: fast %v != generic %v", k, fast, slow)
		}
	}
	fastCurve, err := TopKCurve(ForestRanker{forest}, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	slowCurve, err := TopKCurve(generic, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fastCurve, slowCurve) {
		t.Errorf("curves diverge: fast %v, generic %v", fastCurve, slowCurve)
	}
}

// TestArgsortDescMatchesStableSort cross-checks the allocation-free
// argsort against the stable library sort on adversarial inputs.
func TestArgsortDescMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		p := make([]float64, n)
		for i := range p {
			p[i] = math.Round(rng.Float64()*10) / 10 // heavy ties
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return p[want[a]] > p[want[b]] })
		got := make([]int, n)
		argsortDesc(p, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: argsort %v, stable %v (p=%v)", trial, got, want, p)
		}
	}
}

// TestFitTreeExtractionIdentical pins wide data — feature counts far
// above MaxFeatures, the §6 regime, where each node histograms only
// the few features it samples — to the sort-per-node reference, over
// the whole mix of node sizes inside each tree.
func TestFitTreeExtractionIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		n := 40 + rng.Intn(160)
		nf := 16 + rng.Intn(25)
		nc := 2 + rng.Intn(5)
		d := randomDataset(rng, n, nf, nc)
		cfg := TreeConfig{
			MaxDepth:       rng.Intn(12),
			MinSamplesLeaf: 1 + rng.Intn(2),
			MaxFeatures:    1 + rng.Intn(3),
		}
		seed := rng.Int63()
		want, err := refFitTree(d, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := FitTree(d, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, got, want)
	}
}

// TestForestExtractionIdentical replays FitForestCtx's exact draw
// order (per tree: n bootstrap draws, then a tree seed) through the
// reference engine, covering wide data under bootstrap sampling, where
// a row drawn several times puts several samples in one rank bucket.
func TestForestExtractionIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	d := randomDataset(rng, 150, 30, 4)
	cfg := ForestConfig{NumTrees: 12, Tree: TreeConfig{MaxDepth: 8, MaxFeatures: 2}, Seed: 13}
	got, err := FitForestCtx(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := rand.New(rand.NewSource(cfg.Seed))
	n := len(d.X)
	for i := 0; i < cfg.NumTrees; i++ {
		boot := make([]int, n)
		for j := range boot {
			boot[j] = draw.Intn(n)
		}
		treeSeed := draw.Int63()
		want, err := refFitTree(d.Subset(boot), cfg.Tree, rand.New(rand.NewSource(treeSeed)))
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, got.trees[i], want)
	}
}

// featureShapeDataset draws data at the §6 production shape: 251
// columns — the local hour (0–23), then sparse small-integer cluster
// counts, a quarter of them never populated — and 250 label classes of
// which only 30 occur.
func featureShapeDataset(rng *rand.Rand, n int) *Dataset {
	const numFeatures, numClasses = 251, 250
	labels := rng.Perm(numClasses)[:30]
	d := &Dataset{NumClasses: numClasses}
	for i := 0; i < n; i++ {
		row := make([]float64, numFeatures)
		row[0] = float64(rng.Intn(24))
		for f := 1; f < numFeatures*3/4; f++ {
			if rng.Intn(8) == 0 {
				row[f] = float64(1 + rng.Intn(3))
			}
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, labels[rng.Intn(len(labels))])
	}
	return d
}

// TestForestFeatureShapeMatchesReference holds a forest at the
// production shape to the reference: 250 classes wide but only ~30
// present, so every gini, count reset and count copy runs over the
// classes a node holds, not the label space.
func TestForestFeatureShapeMatchesReference(t *testing.T) {
	d := featureShapeDataset(rand.New(rand.NewSource(61)), 300)
	seen := map[int]bool{}
	for _, y := range d.Y {
		seen[y] = true
	}
	if len(d.X[0]) != 251 || d.NumClasses != 250 || len(seen) < 25 || len(seen) > 30 {
		t.Fatalf("shape %d features, %d classes, %d present", len(d.X[0]), d.NumClasses, len(seen))
	}
	cfg := ForestConfig{NumTrees: 8, Tree: TreeConfig{MaxFeatures: -1}, Seed: 17}
	got, err := FitForestCtx(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	draw := rand.New(rand.NewSource(cfg.Seed))
	n := len(d.X)
	for i := 0; i < cfg.NumTrees; i++ {
		boot := make([]int, n)
		for j := range boot {
			boot[j] = draw.Intn(n)
		}
		treeSeed := draw.Int63()
		want, err := refFitTree(d.Subset(boot), cfg.Tree, rand.New(rand.NewSource(treeSeed)))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.nodes) < 31 {
			t.Fatalf("tree %d has %d nodes; the shape test needs deep trees", i, len(want.nodes))
		}
		treesEqual(t, got.trees[i], want)
	}
}

// TestSampleFeaturesMatchesPerm: the in-place draw returns the prefix
// of rng.Perm(nf), leaves the rng exactly where Perm leaves it, and
// allocates nothing once the builder is warm.
func TestSampleFeaturesMatchesPerm(t *testing.T) {
	for _, tc := range []struct{ nf, k int }{{2, 1}, {4, 2}, {9, 3}, {30, 29}, {251, 15}, {251, 1}} {
		want := rand.New(rand.NewSource(int64(tc.nf*1000 + tc.k)))
		b := &treeBuilder{
			fc:  &fitContext{numFeatures: tc.nf},
			cfg: TreeConfig{MaxFeatures: tc.k},
			rng: rand.New(rand.NewSource(int64(tc.nf*1000 + tc.k))),
		}
		for round := 0; round < 3; round++ {
			perm := want.Perm(tc.nf)[:tc.k]
			if got := b.sampleFeatures(); !reflect.DeepEqual(got, perm) {
				t.Fatalf("nf=%d k=%d round %d: sampled %v, Perm prefix %v", tc.nf, tc.k, round, got, perm)
			}
			if g, w := b.rng.Int63(), want.Int63(); g != w {
				t.Fatalf("nf=%d k=%d round %d: next rng value %d, after Perm %d", tc.nf, tc.k, round, g, w)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() { b.sampleFeatures() }); allocs != 0 {
			t.Errorf("nf=%d k=%d: %v allocs per draw, want 0", tc.nf, tc.k, allocs)
		}
	}
}

// topSource is a rand.Source whose Int31 draws all fall in the top 512
// values below 2^31. Int31n(n) rejects the top 2^31 mod n < n of them,
// so for n below 512 this tests rejection at and next to each bound,
// which a uniform source reaches about once in 2^31/n draws, and still
// accepts half the draws or more.
type topSource struct{ rng *rand.Rand }

func (s topSource) Int63() int64 {
	return (1<<31-1-s.rng.Int63n(512))<<32 | s.rng.Int63n(1<<32)
}
func (s topSource) Seed(seed int64) { s.rng.Seed(seed) }

// TestSampleFeaturesRejectsAsPerm: drawing from a source that makes
// Int31n reject often, the in-place draw still returns Perm's prefix
// and leaves the rng where Perm leaves it, so its tabled rejection
// bounds are Int31n's.
func TestSampleFeaturesRejectsAsPerm(t *testing.T) {
	for _, tc := range []struct{ nf, k int }{{3, 2}, {9, 3}, {251, 15}} {
		want := rand.New(topSource{rand.New(rand.NewSource(int64(tc.nf)))})
		b := &treeBuilder{
			fc:  &fitContext{numFeatures: tc.nf},
			cfg: TreeConfig{MaxFeatures: tc.k},
			rng: rand.New(topSource{rand.New(rand.NewSource(int64(tc.nf)))}),
		}
		for round := 0; round < 20; round++ {
			perm := want.Perm(tc.nf)[:tc.k]
			if got := b.sampleFeatures(); !reflect.DeepEqual(got, perm) {
				t.Fatalf("nf=%d k=%d round %d: sampled %v, Perm prefix %v", tc.nf, tc.k, round, got, perm)
			}
			if g, w := b.rng.Int63(), want.Int63(); g != w {
				t.Fatalf("nf=%d k=%d round %d: next rng value %d, after Perm %d", tc.nf, tc.k, round, g, w)
			}
		}
	}
}

// fuzzStream hands out the fuzz input byte by byte, then bytes from a
// seeded rng once the input runs out.
type fuzzStream struct {
	data []byte
	rng  *rand.Rand
}

func (s *fuzzStream) next() int {
	if len(s.data) == 0 {
		return s.rng.Intn(256)
	}
	c := s.data[0]
	s.data = s.data[1:]
	return int(c)
}

// nearOne holds values whose midpoints round: (1-2^-53 + 1)/2 rounds
// onto 1, so the partition must compare values, not ranks. Signed
// zeros share one rank.
var nearOne = []float64{1 - 0x1p-53, 1, 1 + 0x1p-52, 0, math.Copysign(0, -1)}

// FuzzFitTreeMatchesReference decodes a small dataset — each column low
// cardinality, high cardinality or rounding-prone — plus a TreeConfig
// and, when the byte after the dataset is odd, a bootstrap of n draws
// (repeated rows and undrawn rows both), and requires the builder to
// grow the reference engine's tree on the drawn rows.
func FuzzFitTreeMatchesReference(f *testing.F) {
	f.Add([]byte{40, 3, 2, 0, 0, 0, 0, 1, 2}, int64(1))
	f.Add([]byte{90, 7, 4, 5, 1, 2, 2, 2, 2, 0, 1}, int64(7))
	f.Add([]byte{200, 5, 250, 9, 3, 5, 1, 0, 2}, int64(42))
	f.Add([]byte{100, 2, 1, 8, 2, 3, 3, 0, 2}, int64(10))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		s := &fuzzStream{data: data, rng: rand.New(rand.NewSource(seed))}
		n := 2 + s.next()%120
		nf := 1 + s.next()%8
		nc := 1 + s.next()%6
		cfg := TreeConfig{
			MaxDepth:        s.next() % 10,
			MinSamplesLeaf:  s.next() % 4,
			MinSamplesSplit: s.next() % 6,
		}
		switch k := s.next() % (nf + 2); k {
		case nf:
			cfg.MaxFeatures = -1
		default:
			cfg.MaxFeatures = k // 0 = all
		}
		kinds := make([]int, nf)
		for c := range kinds {
			kinds[c] = s.next() % 3
		}
		d := &Dataset{NumClasses: nc}
		for i := 0; i < n; i++ {
			row := make([]float64, nf)
			for c, kind := range kinds {
				switch kind {
				case 0:
					row[c] = float64(s.next() % 3)
				case 1:
					row[c] = float64(int16(s.next()<<8|s.next())) / 64
				default:
					row[c] = nearOne[s.next()%len(nearOne)]
				}
			}
			d.X = append(d.X, row)
			d.Y = append(d.Y, s.next()%nc)
		}
		sub, boot := d, []int32(nil) // nil: every row once
		if s.next()%2 == 1 {
			idx := make([]int, n)
			boot = make([]int32, n)
			for j := range idx {
				idx[j] = (s.next()<<8 | s.next()) % n
				boot[j] = int32(idx[j])
			}
			sub = d.Subset(idx)
		}
		want, err := refFitTree(sub, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := (&treeBuilder{}).fitTree(newFitContext(d), cfg, rand.New(rand.NewSource(seed)), boot)
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, got, want)
	})
}

// FitTree grows a CART tree. The rng drives feature subsampling; pass
// nil for deterministic all-features behaviour.
func FitTree(d *Dataset, cfg TreeConfig, rng *rand.Rand) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	b := &treeBuilder{}
	return b.fitTree(newFitContext(d), cfg, rng, nil)
}
