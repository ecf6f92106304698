// Package ml implements the learning stack the paper's §6 model needs,
// from scratch on the standard library: CART decision trees split on
// gini impurity, bootstrap-aggregated random forests with feature
// subsampling, gini feature importance, stratified k-fold
// cross-validation, grid search, and the top-k accuracy metric used to
// compare the model against the most-populated-cluster baseline.
//
// Training is built for throughput without giving up reproducibility:
// forests train on a bounded worker pool with every random draw made
// serially up front, each column is ranked once per fit so a node's
// split search is a counting sort over ranks instead of a comparison
// sort, and the batch prediction path is allocation-free. All of
// it is bit-identical to the straightforward serial implementation —
// see README "Learning engine internals".
package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Dataset is a supervised classification dataset. Rows of X are
// feature vectors; Y holds class labels in [0, NumClasses).
type Dataset struct {
	X          [][]float64
	Y          []int
	NumClasses int
}

// Validate checks shape invariants and that every feature is finite:
// the split search orders values, which NaN has no place in, and an
// infinite midpoint threshold would be meaningless.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return fmt.Errorf("ml: empty dataset")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	if d.NumClasses <= 0 {
		return fmt.Errorf("ml: NumClasses = %d", d.NumClasses)
	}
	width := len(d.X[0])
	for i, row := range d.X {
		if len(row) != width {
			return fmt.Errorf("ml: row %d has %d features, row 0 has %d", i, len(row), width)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d feature %d is %v, want a finite value", i, f, v)
			}
		}
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.NumClasses {
			return fmt.Errorf("ml: label %d at row %d out of [0,%d)", y, i, d.NumClasses)
		}
	}
	return nil
}

// Subset returns the dataset restricted to the given row indices
// (shared backing arrays; do not mutate rows).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{NumClasses: d.NumClasses}
	out.X = make([][]float64, len(idx))
	out.Y = make([]int, len(idx))
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// TreeConfig controls CART growth.
type TreeConfig struct {
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples in a leaf; 0 means 1.
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum samples to attempt a split; 0
	// means 2.
	MinSamplesSplit int
	// MaxFeatures is the number of features considered per split; 0
	// means all, -1 means floor(sqrt(numFeatures)) (the random-forest
	// default).
	MaxFeatures int
}

func (c TreeConfig) normalized(numFeatures int) TreeConfig {
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	if c.MinSamplesSplit < 2 {
		c.MinSamplesSplit = 2
	}
	switch {
	case c.MaxFeatures == 0 || c.MaxFeatures > numFeatures:
		c.MaxFeatures = numFeatures
	case c.MaxFeatures < 0:
		c.MaxFeatures = int(math.Sqrt(float64(numFeatures)))
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	return c
}

// node is one tree node; leaves carry the class distribution.
type node struct {
	feature   int // -1 for leaf
	threshold float64
	left      int32
	right     int32
	probs     []float64 // leaf class distribution (view into Tree.leafProbs)
}

// Tree is a trained CART classifier.
type Tree struct {
	nodes       []node
	numClasses  int
	numFeatures int
	importance  []float64 // unnormalized gini-decrease per feature
	// leafProbs is the single backing array every leaf's probs slice
	// points into: one numClasses-wide block per leaf in node order.
	leafProbs []float64
}

// fitContext is the per-dataset presort shared by every tree of a fit.
// Each varying column is reduced to ranks: rank[f][row] is the row's
// index among the column's distinct values vals[f] (ascending), so a
// node can bucket its samples by value in O(node + distinct values),
// and vals[f][rank[f][row]] reads the row's value back exactly.
// Columns that are constant across the dataset (most of the §6
// cluster-count features are) can never host a split; they have no
// ranks and no values. Immutable after construction; concurrent tree
// builders share one instance.
type fitContext struct {
	d           *Dataset
	numFeatures int
	y           []int32     // y[row] = d.Y[row]
	rank        [][]int32   // rank[f][row]; nil when column f is constant
	vals        [][]float64 // distinct values of column f, ascending; nil when constant
	maxDistinct int         // longest vals[f]: the bin count of one counting sort
}

// newFitContext sorts each varying column once — O(active features *
// n log n), paid once per FitForestCtx call — and keeps only the
// ranks and distinct values the sort yields.
func newFitContext(d *Dataset) *fitContext {
	n := len(d.X)
	nf := len(d.X[0])
	fc := &fitContext{
		d:           d,
		numFeatures: nf,
		y:           make([]int32, n),
		rank:        make([][]int32, nf),
		vals:        make([][]float64, nf),
	}
	for r, y := range d.Y {
		fc.y[r] = int32(y)
	}
	varying := make([]bool, nf)
	active := 0
	for _, row := range d.X {
		for f, v := range row {
			if v != d.X[0][f] && !varying[f] {
				varying[f] = true
				active++
			}
		}
	}
	rankFlat := make([]int32, active*n)
	col := make([]float64, n)
	ord := make([]int32, n)
	var distinct []float64
	for f := 0; f < nf; f++ {
		if !varying[f] {
			continue
		}
		for r, row := range d.X {
			col[r] = row[f]
			ord[r] = int32(r)
		}
		sortIdxByKey(col, ord)
		rank := rankFlat[:n:n]
		rankFlat = rankFlat[n:]
		distinct = distinct[:0]
		for _, r := range ord {
			if v := col[r]; len(distinct) == 0 || v != distinct[len(distinct)-1] {
				distinct = append(distinct, v)
			}
			rank[r] = int32(len(distinct) - 1)
		}
		fc.rank[f], fc.vals[f] = rank, slices.Clone(distinct)
		fc.maxDistinct = max(fc.maxDistinct, len(distinct))
	}
	return fc
}

// sortIdxByKey sorts idx ascending by key[idx[i]] with a fat-pivot
// (three-way) quicksort: no closure dispatch, and duplicate-heavy
// columns — the common case for cluster-count features — collapse in
// one partition pass. Equal keys land in arbitrary order, which the
// rank assignment is insensitive to.
func sortIdxByKey(key []float64, idx []int32) {
	for len(idx) > 16 {
		a, b, c := key[idx[0]], key[idx[len(idx)/2]], key[idx[len(idx)-1]]
		// Median of three as the fat pivot.
		pivot := a
		switch {
		case (a <= b && b <= c) || (c <= b && b <= a):
			pivot = b
		case (a <= c && c <= b) || (b <= c && c <= a):
			pivot = c
		}
		lt, i, gt := 0, 0, len(idx)
		for i < gt {
			k := key[idx[i]]
			switch {
			case k < pivot:
				idx[lt], idx[i] = idx[i], idx[lt]
				lt++
				i++
			case k > pivot:
				gt--
				idx[i], idx[gt] = idx[gt], idx[i]
			default:
				i++
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if lt < len(idx)-gt {
			sortIdxByKey(key, idx[:lt])
			idx = idx[gt:]
		} else {
			sortIdxByKey(key, idx[gt:])
			idx = idx[:lt]
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && key[idx[j]] < key[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// sample is one sample position of a tree: its dataset row (the
// bootstrap draw) and that row's label.
type sample struct{ row, y int32 }

// treeBuilder grows trees from a fitContext. All of its buffers are
// reused across trees, so a worker that fits many trees allocates the
// scratch once. Not safe for concurrent use; the pool gives each
// worker its own builder.
type treeBuilder struct {
	fc    *fitContext
	cfg   TreeConfig
	rng   *rand.Rand
	t     *Tree
	n     int
	total float64

	members []sample // sample positions; each node owns a range, partitioned in place
	sorted  []int32  // one (node, feature)'s labels in ascending value order
	bins    []int32  // counting-sort bin offsets by rank; all zero between uses

	classes    []int32   // classes present in the tree's sample, ascending
	present    []int32   // classes present in the current node, ascending
	counts     []float64 // class counts of the current node
	leftCounts []float64 // class counts left of the scanned boundary

	leafProbs   []float64 // the growing tree's leaf distributions, in node order
	features    []int     // sampleFeatures' draw buffer
	allFeatures []int     // identity feature list when MaxFeatures >= numFeatures
}

// fitTree grows one tree over the sample positions boot (nil = the
// identity sample, i.e. the whole dataset). The result is bit-identical
// to growing on d.Subset(boot) with the sort-per-node engine.
func (b *treeBuilder) fitTree(fc *fitContext, cfg TreeConfig, rng *rand.Rand, boot []int) (*Tree, error) {
	cfg = cfg.normalized(fc.numFeatures)
	if cfg.MaxFeatures < fc.numFeatures && rng == nil {
		return nil, fmt.Errorf("ml: feature subsampling requires an rng")
	}
	n := len(boot)
	if boot == nil {
		n = len(fc.d.X)
	}
	t := &Tree{
		numClasses:  fc.d.NumClasses,
		numFeatures: fc.numFeatures,
		importance:  make([]float64, fc.numFeatures),
	}
	b.fc, b.cfg, b.rng, b.t = fc, cfg, rng, t
	b.n, b.total = n, float64(n)
	b.reset(boot)
	b.grow(0, int32(n), 0)
	// One exact-size copy of the leaves grown in reused scratch; every
	// leaf views its numClasses-wide block in node (= DFS) order.
	t.leafProbs = slices.Clone(b.leafProbs)
	off := 0
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			t.nodes[i].probs = t.leafProbs[off : off+t.numClasses : off+t.numClasses]
			off += t.numClasses
		}
	}
	return t, nil
}

// reset sizes the scratch for the current (fc, boot) pair, lays out the
// sample positions and lists the classes the sample holds.
func (b *treeBuilder) reset(boot []int) {
	n, nc := b.n, b.fc.d.NumClasses
	if cap(b.members) < n {
		b.members = make([]sample, n)
		b.sorted = make([]int32, n)
	}
	b.members, b.sorted = b.members[:n], b.sorted[:n]
	b.leafProbs = b.leafProbs[:0]
	if len(b.bins) < b.fc.maxDistinct {
		b.bins = make([]int32, b.fc.maxDistinct)
	}
	if len(b.counts) != nc {
		b.counts = make([]float64, nc)
		b.leftCounts = make([]float64, nc)
	}
	if boot == nil {
		for r := range b.members {
			b.members[r] = sample{row: int32(r), y: b.fc.y[r]}
		}
	} else {
		for pos, r := range boot {
			b.members[pos] = sample{row: int32(r), y: b.fc.y[r]}
		}
	}
	clear(b.counts)
	for _, s := range b.members {
		b.counts[s.y]++
	}
	b.classes = b.classes[:0]
	for c, k := range b.counts {
		if k > 0 {
			b.classes = append(b.classes, int32(c))
		}
	}
}

// gini is the impurity of a node holding counts over n > 0 samples.
// Only the listed classes (ascending) may be non-zero; an absent class
// would subtract an exact zero, so the sum equals the all-classes one
// bit for bit.
func gini(counts []float64, classes []int32, n float64) float64 {
	g := 1.0
	for _, c := range classes {
		p := counts[c] / n
		g -= p * p
	}
	return g
}

// giniSplit is gini of both sides of a boundary: left holds nl of the
// node's samples, and the right side's counts are node - left (exact:
// the counts are integers).
func giniSplit(node, left []float64, classes []int32, nl, nr float64) (gl, gr float64) {
	gl, gr = 1.0, 1.0
	for _, c := range classes {
		l := left[c]
		pl, pr := l/nl, (node[c]-l)/nr
		gl -= pl * pl
		gr -= pr * pr
	}
	return gl, gr
}

// grow builds the subtree over the sample positions [lo, hi) and
// returns its node index.
func (b *treeBuilder) grow(lo, hi int32, depth int) int32 {
	seg := b.members[lo:hi]
	counts := b.counts
	for _, c := range b.classes {
		counts[c] = 0
	}
	for _, s := range seg {
		counts[s.y]++
	}
	n := float64(hi - lo)

	makeLeaf := func() int32 {
		off := len(b.leafProbs)
		b.leafProbs = append(b.leafProbs, make([]float64, b.t.numClasses)...)
		probs := b.leafProbs[off:]
		for _, c := range b.classes {
			probs[c] = counts[c] / n
		}
		b.t.nodes = append(b.t.nodes, node{feature: -1})
		return int32(len(b.t.nodes) - 1)
	}

	if int(hi-lo) < b.cfg.MinSamplesSplit ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) ||
		counts[seg[0].y] == n { // pure
		return makeLeaf()
	}

	feature, threshold, gain := b.bestSplit(lo, hi, counts, n)
	if feature < 0 {
		return makeLeaf()
	}

	// Partition by the real value, never the rank: the midpoint
	// threshold can round onto the upper value, which then goes left.
	// The order within each side is irrelevant — every scan below
	// counting-sorts its node afresh.
	rank, vals := b.fc.rank[feature], b.fc.vals[feature]
	i, j := 0, len(seg)
	for i < j {
		if vals[rank[seg[i].row]] <= threshold {
			i++
		} else {
			j--
			seg[i], seg[j] = seg[j], seg[i]
		}
	}
	nLeft := int32(i)
	nRight := (hi - lo) - nLeft
	if int(nLeft) < b.cfg.MinSamplesLeaf || int(nRight) < b.cfg.MinSamplesLeaf {
		return makeLeaf()
	}

	// Importance: impurity decrease weighted by the node's share of
	// training samples (scikit-learn's convention).
	b.t.importance[feature] += n / b.total * gain

	// Reserve this node's slot before growing children.
	me := int32(len(b.t.nodes))
	b.t.nodes = append(b.t.nodes, node{feature: feature, threshold: threshold})
	l := b.grow(lo, lo+nLeft, depth+1)
	r := b.grow(lo+nLeft, hi, depth+1)
	b.t.nodes[me].left = l
	b.t.nodes[me].right = r
	return me
}

// bestSplit searches the sampled features for the gini-optimal
// threshold. Returns feature -1 when no split improves impurity.
//
// Each feature counting-sorts the node's labels into one bin per
// distinct value, O(node + distinct values), then scans the bins in
// value order. A candidate sits between two consecutive non-empty bins,
// with threshold (vals[r] + vals[next non-empty])/2: exactly the
// boundaries, class counts and midpoints a sorted (value, label) scan
// visits, in the same order, so the chosen split is bit-identical to
// the sort-per-node engine's (TestBestSplitPresortIdentical).
func (b *treeBuilder) bestSplit(lo, hi int32, parentCounts []float64, n float64) (int, float64, float64) {
	present := b.present[:0]
	for _, c := range b.classes {
		if parentCounts[c] > 0 {
			present = append(present, c)
		}
	}
	b.present = present
	parentGini := gini(parentCounts, present, n)
	bestFeature := -1
	bestThreshold := 0.0
	bestGain := 1e-12 // require a strictly positive gain

	seg, m := b.members[lo:hi], hi-lo
	minLeaf := b.cfg.MinSamplesLeaf
	leftCounts := b.leftCounts
	for _, f := range b.sampleFeatures() {
		vals := b.fc.vals[f]
		if vals == nil {
			continue // constant across the dataset
		}
		rank := b.fc.rank[f]
		bins := b.bins[:len(vals)]
		for _, s := range seg {
			bins[rank[s.row]]++
		}
		var acc int32
		for r, c := range bins {
			bins[r] = acc
			acc += c
		}
		for _, s := range seg {
			r := rank[s.row]
			b.sorted[bins[r]] = s.y
			bins[r]++
		}
		// bins[r] is now the end of bin r in sorted.
		for _, c := range present {
			leftCounts[c] = 0
		}
		done, prev := int32(0), 0
		for r, end := range bins {
			if end == done {
				continue // empty bin
			}
			if done > 0 {
				nl := float64(done)
				nr := n - nl
				if int(nl) >= minLeaf && int(nr) >= minLeaf {
					gl, gr := giniSplit(parentCounts, leftCounts, present, nl, nr)
					g := parentGini - (nl/n)*gl - (nr/n)*gr
					if g > bestGain {
						bestGain = g
						bestFeature = f
						bestThreshold = (vals[prev] + vals[r]) / 2
					}
				}
			}
			if end == m {
				break // last non-empty bin
			}
			for _, y := range b.sorted[done:end] {
				leftCounts[y]++
			}
			done, prev = end, r
		}
		clear(bins)
	}
	return bestFeature, bestThreshold, bestGain
}

// sampleFeatures picks cfg.MaxFeatures distinct feature indices: the
// prefix of rng.Perm(numFeatures), drawn with Perm's exact sequence into
// a reused buffer.
func (b *treeBuilder) sampleFeatures() []int {
	nf := b.fc.numFeatures
	if b.cfg.MaxFeatures >= nf {
		if len(b.allFeatures) != nf {
			b.allFeatures = make([]int, nf)
			for f := range b.allFeatures {
				b.allFeatures[f] = f
			}
		}
		return b.allFeatures
	}
	if cap(b.features) < nf {
		b.features = make([]int, nf)
	}
	m := b.features[:nf]
	for i := range m {
		j := b.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m[:b.cfg.MaxFeatures]
}

// leaf descends to the leaf for x without width validation; callers
// (Forest's batch path) validate once at the ensemble level.
func (t *Tree) leaf(x []float64) *node {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Importance returns the normalized gini importance per feature
// (sums to 1 when any split happened).
func (t *Tree) Importance() []float64 {
	out := append([]float64(nil), t.importance...)
	normalize(out)
	return out
}

func normalize(xs []float64) {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range xs {
		xs[i] /= s
	}
}
