package ml

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	NumTrees int // default 100
	Tree     TreeConfig
	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
	// Workers bounds the training worker pool: 0 means GOMAXPROCS,
	// 1 fits one tree at a time. The trained forest is bit-identical at
	// any worker count — every random draw happens serially, in tree
	// order.
	Workers int
	// Metrics, when non-nil, receives training counters and timings.
	// Observational only; the fitted forest is unaffected.
	Metrics *Metrics
}

func (c ForestConfig) normalized() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.Tree.MaxFeatures == 0 {
		c.Tree.MaxFeatures = -1 // sqrt, the forest default
	}
	return c
}

// resolveWorkers maps a Workers knob to a pool size bounded by the job
// count.
func resolveWorkers(w, jobs int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Forest is a trained random-forest classifier.
type Forest struct {
	trees       []*Tree
	numClasses  int
	numFeatures int
}

// FitForestCtx trains a bagged ensemble of CART trees on a bounded
// worker pool (cfg.Workers), honouring ctx cancellation between trees.
//
// Determinism scheme: every tree's bootstrap indices and subsampling
// seed are drawn serially from cfg.Seed, in tree order (per tree: n
// bootstrap draws, then the seed), each just before its tree goes to
// a worker. Workers write each finished tree into its slot, so the
// ensemble (and everything downstream: probabilities, rankings,
// importances, serialized bytes) is bit-identical at any worker count.
func FitForestCtx(ctx context.Context, d *Dataset, cfg ForestConfig) (*Forest, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return fitForest(ctx, newFitContext(d), cfg)
}

// fitForest trains the ensemble over a validated, presorted table:
// FitForestCtx's dataset or a WindowFit's window. The caller's
// goroutine draws tree i's bootstrap and seed, in tree order, into a
// free n-row buffer just before handing the tree to a worker, which
// returns the buffer when the tree is grown: one buffer per worker,
// however many trees. Each worker reuses one builder and one rng,
// re-seeded per tree: Seed(s) leaves it in the state
// rand.New(rand.NewSource(s)) starts in.
func fitForest(ctx context.Context, fc *fitContext, cfg ForestConfig) (*Forest, error) {
	cfg = cfg.normalized()
	n := len(fc.y)
	f := &Forest{
		trees:       make([]*Tree, cfg.NumTrees),
		numClasses:  fc.numClasses,
		numFeatures: fc.numFeatures,
	}

	var fitStart time.Time
	if cfg.Metrics != nil {
		fitStart = time.Now()
	}
	type job struct {
		i    int
		seed int64
		boot []int32
	}
	workers := resolveWorkers(cfg.Workers, cfg.NumTrees)
	jobs := make(chan job)
	// free holds every bootstrap buffer not lent to a worker, so
	// handing one back never blocks.
	free := make(chan []int32, workers)
	errs := make([]error, cfg.NumTrees)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		free <- make([]int32, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, treeRng := &treeBuilder{}, rand.New(rand.NewSource(0))
			for j := range jobs {
				treeRng.Seed(j.seed)
				t, err := b.fitTree(fc, cfg.Tree, treeRng, j.boot)
				if err != nil {
					errs[j.i] = err
					failed.Store(true)
				} else {
					cfg.Metrics.treeFitted()
					f.trees[j.i] = t
				}
				free <- j.boot
			}
		}()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.NumTrees; i++ {
		boot := <-free
		if ctx.Err() != nil || failed.Load() {
			break
		}
		for j := range boot {
			boot[j] = int32(rng.Intn(n)) // Intn(n) < 2^31 fits an int32
		}
		jobs <- job{i, rng.Int63(), boot}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", i, err)
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.observeFit(time.Since(fitStart))
	}
	return f, nil
}

// NumClasses reports the label-space size the forest was trained on.
func (f *Forest) NumClasses() int { return f.numClasses }

// NumFeatures reports the input width the forest was trained on.
func (f *Forest) NumFeatures() int { return f.numFeatures }

// checkWidth validates an input vector once at the forest level; the
// per-tree descent then runs unchecked (every tree shares numFeatures).
func (f *Forest) checkWidth(x []float64) error {
	if len(x) != f.numFeatures {
		return fmt.Errorf("ml: input has %d features, forest trained on %d", len(x), f.numFeatures)
	}
	return nil
}

// PredictProbaInto averages the trees' leaf distributions into out
// (length NumClasses) without allocating.
func (f *Forest) PredictProbaInto(x []float64, out []float64) error {
	if err := f.checkWidth(x); err != nil {
		return err
	}
	if len(out) != f.numClasses {
		return fmt.Errorf("ml: output has %d slots, forest has %d classes", len(out), f.numClasses)
	}
	for i := range out {
		out[i] = 0
	}
	// A tree adds only its leaf's non-zero entries: the classes it
	// omits would add +0, which leaves every sum bit-identical.
	for _, t := range f.trees {
		nd := t.leaf(x)
		for i := nd.left; i < nd.right; i++ {
			out[t.leafCls[i]] += t.leafP[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return nil
}

// PredictProba averages the trees' leaf distributions.
func (f *Forest) PredictProba(x []float64) ([]float64, error) {
	out := make([]float64, f.numClasses)
	if err := f.PredictProbaInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TopKOf ranks a probability/count vector and returns the first k
// indices (all of them when k <= 0 or k > len).
func TopKOf(p []float64, k int) []int {
	idx := make([]int, len(p))
	argsortDesc(p, idx)
	if k <= 0 || k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// argsortDesc fills idx with the indices of p ordered by descending
// value, ties by ascending index — the (value desc, index asc) key is a
// total order, so the result is unique and any correct sort reproduces
// the old stable-sort ranking. The scratch-free quicksort keeps the
// batch evaluation path at zero allocations per row.
func argsortDesc(p []float64, idx []int) {
	for i := range idx {
		idx[i] = i
	}
	argsortRange(p, idx)
}

// argRanks reports whether index a sorts before index b.
func argRanks(p []float64, a, b int) bool {
	if p[a] != p[b] {
		return p[a] > p[b]
	}
	return a < b
}

func argsortRange(p []float64, idx []int) {
	for len(idx) > 12 {
		// Median-of-three pivot, then Hoare-style partition.
		mid := len(idx) / 2
		last := len(idx) - 1
		if argRanks(p, idx[mid], idx[0]) {
			idx[mid], idx[0] = idx[0], idx[mid]
		}
		if argRanks(p, idx[last], idx[0]) {
			idx[last], idx[0] = idx[0], idx[last]
		}
		if argRanks(p, idx[last], idx[mid]) {
			idx[last], idx[mid] = idx[mid], idx[last]
		}
		pivot := idx[mid]
		i, j := 0, last
		for i <= j {
			for argRanks(p, idx[i], pivot) {
				i++
			}
			for argRanks(p, pivot, idx[j]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(idx)-i {
			argsortRange(p, idx[:j+1])
			idx = idx[i:]
		} else {
			argsortRange(p, idx[i:])
			idx = idx[:j+1]
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && argRanks(p, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// NumTrees reports ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Importance averages the trees' normalized gini importances.
func (f *Forest) Importance() []float64 {
	out := make([]float64, f.numFeatures)
	for _, t := range f.trees {
		for i, v := range t.Importance() {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}
