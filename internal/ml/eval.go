package ml

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// Ranker is anything that can rank classes for an input — the trained
// forest and the availability baseline both satisfy it, which is what
// lets the Figure 8 comparison treat them symmetrically.
type Ranker interface {
	// RankClasses returns class indices in descending preference.
	RankClasses(x []float64) ([]int, error)
}

// ForestRanker adapts a Forest to the Ranker interface.
type ForestRanker struct{ *Forest }

// RankClasses ranks by predicted probability.
func (f ForestRanker) RankClasses(x []float64) ([]int, error) {
	p, err := f.PredictProba(x)
	if err != nil {
		return nil, err
	}
	return TopKOf(p, 0), nil
}

// RankClassesInto computes the same ranking as RankClasses without
// allocating: probs and idx are caller scratch of length NumClasses().
func (f ForestRanker) RankClassesInto(x []float64, probs []float64, idx []int) error {
	if err := f.PredictProbaInto(x, probs); err != nil {
		return err
	}
	if len(idx) != len(probs) {
		return fmt.Errorf("ml: rank scratch has %d slots, forest has %d classes", len(idx), len(probs))
	}
	argsortDesc(probs, idx)
	return nil
}

// rankerInto is the optional fast path TopKAccuracy/TopKCurve use when
// the ranker can fill caller-owned scratch instead of allocating a
// fresh ranking per row.
type rankerInto interface {
	NumClasses() int
	RankClassesInto(x []float64, probs []float64, idx []int) error
}

// RankerFunc adapts a function to Ranker.
type RankerFunc func(x []float64) ([]int, error)

// RankClasses calls the function.
func (fn RankerFunc) RankClasses(x []float64) ([]int, error) { return fn(x) }

// topKHit reports whether label y appears in the first k entries of
// ranked.
func topKHit(ranked []int, y, k int) bool {
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	for _, c := range ranked {
		if c == y {
			return true
		}
	}
	return false
}

// TopKAccuracy returns the fraction of test rows whose true label
// appears in the ranker's first k classes. Rankers that implement the
// scratch-filling fast path (the forest does) are evaluated with zero
// allocations per row.
func TopKAccuracy(r Ranker, d *Dataset, k int) (float64, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if k <= 0 {
		return 0, fmt.Errorf("ml: top-k needs k >= 1, got %d", k)
	}
	hit := 0
	if ri, ok := r.(rankerInto); ok {
		probs := make([]float64, ri.NumClasses())
		idx := make([]int, ri.NumClasses())
		for i, x := range d.X {
			if err := ri.RankClassesInto(x, probs, idx); err != nil {
				return 0, fmt.Errorf("ml: ranking row %d: %w", i, err)
			}
			if topKHit(idx, d.Y[i], k) {
				hit++
			}
		}
		return float64(hit) / float64(len(d.X)), nil
	}
	for i, x := range d.X {
		ranked, err := r.RankClasses(x)
		if err != nil {
			return 0, fmt.Errorf("ml: ranking row %d: %w", i, err)
		}
		if topKHit(ranked, d.Y[i], k) {
			hit++
		}
	}
	return float64(hit) / float64(len(d.X)), nil
}

// TopKCurve evaluates TopKAccuracy for k = 1..maxK in one pass per row.
func TopKCurve(r Ranker, d *Dataset, maxK int) ([]float64, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if maxK <= 0 {
		return nil, fmt.Errorf("ml: maxK = %d", maxK)
	}
	hits := make([]int, maxK)
	tally := func(ranked []int, y int) {
		for pos, c := range ranked {
			if pos >= maxK {
				return
			}
			if c == y {
				for k := pos; k < maxK; k++ {
					hits[k]++
				}
				return
			}
		}
	}
	if ri, ok := r.(rankerInto); ok {
		probs := make([]float64, ri.NumClasses())
		idx := make([]int, ri.NumClasses())
		for i, x := range d.X {
			if err := ri.RankClassesInto(x, probs, idx); err != nil {
				return nil, fmt.Errorf("ml: ranking row %d: %w", i, err)
			}
			tally(idx, d.Y[i])
		}
	} else {
		for i, x := range d.X {
			ranked, err := r.RankClasses(x)
			if err != nil {
				return nil, fmt.Errorf("ml: ranking row %d: %w", i, err)
			}
			tally(ranked, d.Y[i])
		}
	}
	out := make([]float64, maxK)
	for k := range out {
		out[k] = float64(hits[k]) / float64(len(d.X))
	}
	return out, nil
}

// TrainTestSplit shuffles row indices and splits them with the given
// holdout fraction (e.g. 0.2 for the paper's 80/20 protocol).
func TrainTestSplit(n int, holdoutFrac float64, rng *rand.Rand) (train, test []int, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("ml: cannot split %d rows", n)
	}
	if holdoutFrac <= 0 || holdoutFrac >= 1 {
		return nil, nil, fmt.Errorf("ml: holdout fraction %v out of (0,1)", holdoutFrac)
	}
	perm := rng.Perm(n)
	nTest := int(float64(n) * holdoutFrac)
	if nTest < 1 {
		nTest = 1
	}
	return perm[nTest:], perm[:nTest], nil
}

// StratifiedKFold partitions row indices into k folds with per-class
// round-robin assignment, so each fold sees every class in proportion.
func StratifiedKFold(d *Dataset, k int, rng *rand.Rand) ([][]int, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if k < 2 || k > len(d.Y) {
		return nil, fmt.Errorf("ml: k = %d folds for %d rows", k, len(d.Y))
	}
	byClass := map[int][]int{}
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	folds := make([][]int, k)
	next := 0
	for _, c := range classes {
		rows := byClass[c]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		for _, r := range rows {
			folds[next%k] = append(folds[next%k], r)
			next++
		}
	}
	return folds, nil
}

// foldSplit is one fold's precomputed train/test subsets, shared
// read-only by every config that cross-validates over it.
type foldSplit struct {
	train *Dataset
	test  *Dataset
	size  int // held-out rows, the fold's weight in the CV mean
}

// splitFolds materializes each fold's train/test subsets.
func splitFolds(d *Dataset, folds [][]int) ([]foldSplit, error) {
	if len(folds) < 2 {
		return nil, fmt.Errorf("ml: need >= 2 folds, got %d", len(folds))
	}
	out := make([]foldSplit, len(folds))
	for i := range folds {
		var trainIdx []int
		for j, f := range folds {
			if j != i {
				trainIdx = append(trainIdx, f...)
			}
		}
		if len(trainIdx) == 0 || len(folds[i]) == 0 {
			return nil, fmt.Errorf("ml: fold %d is degenerate", i)
		}
		out[i] = foldSplit{train: d.Subset(trainIdx), test: d.Subset(folds[i]), size: len(folds[i])}
	}
	return out, nil
}

// runPool runs jobs 0..n-1 on `workers` goroutines and returns the
// first error in job order (or ctx's error on cancellation). Jobs are
// claimed by atomic counter, so completion order is nondeterministic
// but every result lands in a caller-owned slot.
func runPool(ctx context.Context, n, workers int, job func(i int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				if errs[i] = job(i); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitWorkers divides a total worker budget between a job-level pool
// and the forest training inside each job: outer pool first, leftover
// parallelism nested into each fit.
func splitWorkers(total, jobs int) (outer, inner int) {
	outer = resolveWorkers(total, jobs)
	if total <= 0 {
		total = resolveWorkers(0, 1<<30)
	}
	inner = total / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// weightedFoldMean averages fold scores weighted by held-out size:
// folds are unequal when n % k != 0, and an unweighted mean would
// over-count the small folds.
func weightedFoldMean(scores []float64, splits []foldSplit) float64 {
	num, den := 0.0, 0.0
	for i, s := range scores {
		w := float64(splits[i].size)
		num += s * w
		den += w
	}
	return num / den
}

// GridPoint is one hyperparameter combination with its CV score.
type GridPoint struct {
	Config ForestConfig
	Score  float64
}

// GridSearchCtx cross-validates every config over numFolds stratified
// folds drawn from seed and returns them sorted by descending score
// (best first; ties keep input order). It fans out over every
// (config, fold) pair on a bounded worker pool of `workers` total parallelism (0 =
// GOMAXPROCS, shared between the pair pool and each pair's forest
// fit). Scores and ordering are identical at any worker count: every
// pair's forest is deterministic in (config, fold), results land in
// indexed slots, and the final sort is stable over input order.
func GridSearchCtx(ctx context.Context, d *Dataset, configs []ForestConfig, numFolds, topK int, seed int64, workers int) ([]GridPoint, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("ml: empty grid")
	}
	rng := rand.New(rand.NewSource(seed))
	folds, err := StratifiedKFold(d, numFolds, rng)
	if err != nil {
		return nil, err
	}
	splits, err := splitFolds(d, folds)
	if err != nil {
		return nil, err
	}
	jobs := len(configs) * len(splits)
	outer, inner := splitWorkers(workers, jobs)
	scores := make([]float64, jobs)
	err = runPool(ctx, jobs, outer, func(i int) error {
		ci, fi := i/len(splits), i%len(splits)
		fitCfg := configs[ci]
		fitCfg.Workers = inner
		forest, err := FitForestCtx(ctx, splits[fi].train, fitCfg)
		if err != nil {
			return err
		}
		acc, err := TopKAccuracy(ForestRanker{forest}, splits[fi].test, topK)
		if err != nil {
			return err
		}
		scores[i] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]GridPoint, 0, len(configs))
	for ci, cfg := range configs {
		out = append(out, GridPoint{
			Config: cfg,
			Score:  weightedFoldMean(scores[ci*len(splits):(ci+1)*len(splits)], splits),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}
