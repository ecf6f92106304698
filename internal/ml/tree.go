// Package ml implements the learning stack the paper's §6 model needs,
// from scratch on the standard library: CART decision trees split on
// gini impurity, bootstrap-aggregated random forests with feature
// subsampling, gini feature importance, stratified k-fold
// cross-validation, grid search, and the top-k accuracy metric used to
// compare the model against the most-populated-cluster baseline.
//
// Training is built for throughput without giving up reproducibility:
// forests train on a bounded worker pool with every random draw made
// serially, in tree order; a tree folds its bootstrap into one weighted
// member per distinct drawn row; each column is ranked once per fit,
// so a node's split search is one histogram pass over ranks instead
// of a comparison sort; leaves store only their non-zero class
// probabilities; and the batch prediction path is allocation-free.
// All of it is bit-identical to the straightforward serial
// implementation — see README "Learning engine internals".
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

// node is one tree node. A leaf (feature -1) stores its class
// distribution sparsely: left and right bound its non-zero entries,
// leafCls[left:right] and leafP[left:right] of its Tree.
type node struct {
	feature   int // -1 for leaf
	threshold float64
	left      int32
	right     int32
}

// Tree is a trained CART classifier.
type Tree struct {
	nodes       []node
	numClasses  int
	numFeatures int
	importance  []float64 // unnormalized gini-decrease per feature
	// leafCls and leafP hold every leaf's non-zero class probabilities
	// (class ascending within a leaf, leaves in node order). A class a
	// leaf omits has probability +0, which adds nothing to a sum.
	leafCls []int32
	leafP   []float64
}

// denseLeaf writes leaf nd's class distribution into p (length
// numClasses), zeros included.
func (t *Tree) denseLeaf(nd *node, p []float64) {
	clear(p)
	for i := nd.left; i < nd.right; i++ {
		p[t.leafCls[i]] = t.leafP[i]
	}
}

// addLeaf appends a leaf node holding the dense distribution p. Every
// entry but +0 is kept (a -0 too), so denseLeaf gives p back bit for
// bit.
func (t *Tree) addLeaf(p []float64) {
	lo := int32(len(t.leafCls))
	for c, v := range p {
		if math.Float64bits(v) != 0 {
			t.leafCls = append(t.leafCls, int32(c))
			t.leafP = append(t.leafP, v)
		}
	}
	t.nodes = append(t.nodes, node{feature: -1, left: lo, right: int32(len(t.leafCls))})
}

// fitContext is the per-fit presort shared by every tree of a fit.
// Each varying column is reduced to ranks: rank[f][row] is the row's
// index among the column's distinct values vals[f] (ascending), so a
// node can bin its members by value in O(members + distinct values),
// and vals[f][rank[f][row]] reads the row's value back exactly.
// Columns that are constant across the table can never host a split;
// they have no ranks and no values. Few §6 columns are: on
// online-learn's windows (256–2,048 rows) 177–232 of the 251 vary, so
// the presort sorts most of them. Immutable after construction;
// concurrent tree builders share one instance.
type fitContext struct {
	numFeatures int
	numClasses  int
	y           []int32     // y[row]: the row's label
	rank        [][]int32   // rank[f][row]; nil when column f is constant
	vals        [][]float64 // distinct values of column f, ascending; nil when constant
	maxDistinct int         // longest vals[f]: the bin count of one split histogram
}

// newFitContext presorts a validated dataset.
func newFitContext(d *Dataset) *fitContext {
	nf := len(d.X[0])
	fc := &fitContext{numFeatures: nf, numClasses: d.NumClasses, y: make([]int32, len(d.X))}
	for r, y := range d.Y {
		fc.y[r] = int32(y)
	}
	varying := make([]bool, nf)
	for _, row := range d.X {
		for f, v := range row {
			if v != d.X[0][f] {
				varying[f] = true
			}
		}
	}
	fc.presort(varying, func(f int, col []float64) {
		for r, row := range d.X {
			col[r] = row[f]
		}
	})
	return fc
}

// presort sorts each varying column once — O(active features * n log
// n), paid once per fit — and keeps only the ranks and distinct values
// the sort yields. fill copies column f, in row order, into col (one
// scratch reused for every column). fc.y must be set.
func (fc *fitContext) presort(varying []bool, fill func(f int, col []float64)) {
	n := len(fc.y)
	active := 0
	for _, vary := range varying {
		if vary {
			active++
		}
	}
	fc.rank = make([][]int32, fc.numFeatures)
	fc.vals = make([][]float64, fc.numFeatures)
	rankFlat := make([]int32, active*n)
	col := make([]float64, n)
	ord := make([]int32, n)
	var distinct []float64
	for f, vary := range varying {
		if !vary {
			continue
		}
		fill(f, col)
		for r := range ord {
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

// sample is one member of a tree's sample: a distinct dataset row the
// bootstrap drew, its label, and w, the number of times it was drawn.
// Every count a tree takes — node sizes, class counts, the leaf-size
// and split-size limits, importance weights — sums w, so each equals
// the count over the bootstrap with its repeats.
type sample struct{ row, y, w int32 }

// treeBuilder grows trees from a fitContext. All of its buffers are
// reused across trees, so a worker that fits many trees allocates the
// scratch once. Not safe for concurrent use; the pool gives each
// worker its own builder.
type treeBuilder struct {
	fc    *fitContext
	cfg   TreeConfig
	rng   *rand.Rand
	t     *Tree
	total float64 // the tree's sample size, repeats included

	members []sample // one per distinct drawn row; each node owns a range, partitioned in place
	drawn   []int32  // times the bootstrap drew each dataset row; all zero between uses

	classes    []int32   // classes present in the tree's sample, ascending
	present    []int32   // classes present in the current node, ascending
	slot       []int32   // slot[class] = the class's index in present
	counts     []float64 // class counts of the current node, by class
	nodeCounts []float64 // the same counts, by index in present
	leftCounts []float64 // counts left of the scanned boundary, by index in present

	binW []int32 // one (node, feature)'s weight per rank bin; all zero between uses
	hist []int32 // its weight per (rank bin, index in present); all zero between uses

	// The growing tree's nodes and sparse leaves, laid out as in Tree.
	nodes   []node
	leafCls []int32
	leafP   []float64

	features    []int   // sampleFeatures' draw buffer
	drawMax     []int32 // Int31n's rejection bound for i+1 at i; -1 for a power of two
	allFeatures []int   // identity feature list when MaxFeatures >= numFeatures
}

// fitTree grows one tree over the bootstrap boot (nil = the identity
// sample, i.e. the whole dataset). The result is bit-identical to
// growing on d.Subset(boot) with the sort-per-node engine.
func (b *treeBuilder) fitTree(fc *fitContext, cfg TreeConfig, rng *rand.Rand, boot []int32) (*Tree, error) {
	cfg = cfg.normalized(fc.numFeatures)
	if cfg.MaxFeatures < fc.numFeatures && rng == nil {
		return nil, fmt.Errorf("ml: feature subsampling requires an rng")
	}
	t := &Tree{
		numClasses:  fc.numClasses,
		numFeatures: fc.numFeatures,
		importance:  make([]float64, fc.numFeatures),
	}
	b.fc, b.cfg, b.rng, b.t = fc, cfg, rng, t
	b.reset(boot)
	b.grow(0, int32(len(b.members)), 0)
	// One exact-size copy of what grew in reused scratch.
	t.nodes = slices.Clone(b.nodes)
	t.leafCls, t.leafP = slices.Clone(b.leafCls), slices.Clone(b.leafP)
	return t, nil
}

// reset folds boot into one weighted member per distinct drawn row, in
// row order, sizes the scratch and lists the classes the sample holds.
func (b *treeBuilder) reset(boot []int32) {
	y, nc := b.fc.y, b.fc.numClasses
	b.members = b.members[:0]
	if boot == nil {
		for r, c := range y {
			b.members = append(b.members, sample{row: int32(r), y: c, w: 1})
		}
		b.total = float64(len(y))
	} else {
		if len(b.drawn) != len(y) {
			b.drawn = make([]int32, len(y))
		}
		for _, r := range boot {
			b.drawn[r]++
		}
		for r, w := range b.drawn {
			if w > 0 {
				b.members = append(b.members, sample{row: int32(r), y: y[r], w: w})
				b.drawn[r] = 0
			}
		}
		b.total = float64(len(boot))
	}
	b.nodes, b.leafCls, b.leafP = b.nodes[:0], b.leafCls[:0], b.leafP[:0]
	if len(b.binW) < b.fc.maxDistinct {
		b.binW = make([]int32, b.fc.maxDistinct)
	}
	if len(b.counts) != nc {
		b.counts = make([]float64, nc)
		b.slot = make([]int32, nc)
	}
	clear(b.counts)
	for _, s := range b.members {
		b.counts[s.y] += float64(s.w)
	}
	b.classes = b.classes[:0]
	for c, k := range b.counts {
		if k > 0 {
			b.classes = append(b.classes, int32(c))
		}
	}
	if k := len(b.classes); len(b.nodeCounts) < k {
		b.nodeCounts = make([]float64, k)
		b.leftCounts = make([]float64, k)
	}
}

// gini is the impurity of a node holding counts over n > 0 samples.
// Callers pass only the classes the node holds, ascending; an absent
// class would subtract an exact zero, so the sum equals the
// all-classes one bit for bit.
func gini(counts []float64, n float64) float64 {
	g := 1.0
	for _, k := range counts {
		p := k / n
		g -= p * p
	}
	return g
}

// grow builds the subtree over the members [lo, hi) and returns its
// node index.
func (b *treeBuilder) grow(lo, hi int32, depth int) int32 {
	seg := b.members[lo:hi]
	counts := b.counts
	for _, c := range b.classes {
		counts[c] = 0
	}
	var m int32
	for _, s := range seg {
		counts[s.y] += float64(s.w)
		m += s.w
	}
	n := float64(m)

	makeLeaf := func() int32 {
		off := int32(len(b.leafCls))
		for _, c := range b.classes {
			if counts[c] > 0 {
				b.leafCls = append(b.leafCls, c)
				b.leafP = append(b.leafP, counts[c]/n)
			}
		}
		b.nodes = append(b.nodes, node{feature: -1, left: off, right: int32(len(b.leafCls))})
		return int32(len(b.nodes) - 1)
	}

	if int(m) < b.cfg.MinSamplesSplit ||
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
	// The order within each side is irrelevant — every split search
	// below histograms its node afresh.
	rank, vals := b.fc.rank[feature], b.fc.vals[feature]
	i, j := 0, len(seg)
	var mLeft int32
	for i < j {
		if vals[rank[seg[i].row]] <= threshold {
			mLeft += seg[i].w
			i++
		} else {
			j--
			seg[i], seg[j] = seg[j], seg[i]
		}
	}
	if int(mLeft) < b.cfg.MinSamplesLeaf || int(m-mLeft) < b.cfg.MinSamplesLeaf {
		return makeLeaf()
	}

	// Importance: impurity decrease weighted by the node's share of
	// training samples (scikit-learn's convention).
	b.t.importance[feature] += n / b.total * gain

	// Reserve this node's slot before growing children.
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: feature, threshold: threshold})
	l := b.grow(lo, lo+int32(i), depth+1)
	r := b.grow(lo+int32(i), hi, depth+1)
	b.nodes[me].left = l
	b.nodes[me].right = r
	return me
}

// bestSplit searches the sampled features for the gini-optimal
// threshold. Returns feature -1 when no split improves impurity.
//
// Each feature makes one pass over the node's members, adding each
// member's weight to its rank bin and to its (rank bin, present class)
// cell of a histogram. A scan of the bins in value order then scores
// the boundary before each non-empty bin, adds the bin's row to the
// left counts and zeroes what the pass touched. A candidate sits
// between two consecutive non-empty bins, with threshold (vals[r] +
// vals[next non-empty])/2: exactly the boundaries, class counts and
// midpoints a sorted (value, label) scan of the bootstrap visits, in
// the same order, so the chosen split is bit-identical to the
// sort-per-node engine's (TestBestSplitPresortIdentical).
func (b *treeBuilder) bestSplit(lo, hi int32, parentCounts []float64, n float64) (int, float64, float64) {
	present := b.present[:0]
	for _, c := range b.classes {
		if parentCounts[c] > 0 {
			b.slot[c] = int32(len(present))
			present = append(present, c)
		}
	}
	b.present = present
	k := len(present)
	node, left := b.nodeCounts[:k], b.leftCounts[:k]
	for j, c := range present {
		node[j] = parentCounts[c]
	}
	parentGini := gini(node, n)
	bestFeature := -1
	bestThreshold := 0.0
	bestGain := 1e-12 // require a strictly positive gain

	seg := b.members[lo:hi]
	minLeaf := b.cfg.MinSamplesLeaf
	for _, f := range b.sampleFeatures() {
		vals := b.fc.vals[f]
		if vals == nil {
			continue // constant across the dataset
		}
		rank := b.fc.rank[f]
		binW := b.binW[:len(vals)]
		if need := len(vals) * k; len(b.hist) < need {
			b.hist = make([]int32, need)
		}
		hist := b.hist
		for _, s := range seg {
			r := rank[s.row]
			binW[r] += s.w
			hist[int(r)*k+int(b.slot[s.y])] += s.w
		}
		clear(left)
		done, prev := int32(0), 0
		for r, w := range binW {
			if w == 0 {
				continue // empty bin
			}
			if done > 0 {
				nl := float64(done)
				nr := n - nl
				if int(nl) >= minLeaf && int(nr) >= minLeaf {
					// Gini of both sides; the right side's counts are
					// node - left (exact: the counts are integers).
					gl, gr := 1.0, 1.0
					for j, l := range left {
						pl, pr := l/nl, (node[j]-l)/nr
						gl -= pl * pl
						gr -= pr * pr
					}
					g := parentGini - (nl/n)*gl - (nr/n)*gr
					if g > bestGain {
						bestGain = g
						bestFeature = f
						bestThreshold = (vals[prev] + vals[r]) / 2
					}
				}
			}
			binW[r] = 0
			row := hist[r*k : r*k+k]
			if float64(done+w) == n {
				clear(row)
				break // last non-empty bin
			}
			for j, c := range row {
				left[j] += float64(c)
				row[j] = 0
			}
			done, prev = done+w, r
		}
	}
	return bestFeature, bestThreshold, bestGain
}

// sampleFeatures picks cfg.MaxFeatures distinct feature indices: the
// prefix of rng.Perm(numFeatures), drawn with Perm's exact sequence into
// a reused buffer. Perm's rng.Intn(i+1) is Int31n's draw, made here on
// the rng's Int63 with Int31n's rejection bound for each i+1 tabled
// once per builder, so the rng advances exactly as under Perm.
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
	if len(b.drawMax) != nf {
		b.features = make([]int, nf)
		b.drawMax = make([]int32, nf)
		for i := range b.drawMax {
			n := uint32(i + 1)
			b.drawMax[i] = -1 // a power of two is masked, not rejected
			if n&(n-1) != 0 {
				b.drawMax[i] = int32((1 << 31) - 1 - (1<<31)%n)
			}
		}
	}
	m := b.features
	for i := range m {
		n := int32(i + 1)
		v := int32(b.rng.Int63() >> 32) // rng.Int31()
		if bound := b.drawMax[i]; bound < 0 {
			v &= n - 1
		} else {
			for v > bound {
				v = int32(b.rng.Int63() >> 32)
			}
			v %= n
		}
		m[i] = m[v]
		m[v] = i
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
