// Package stats provides the statistical machinery the paper's
// analyses use: the Mann-Whitney U test (with normal approximation and
// tie correction) that demonstrates consecutive 15-second windows
// carry different latency distributions, Pearson correlation for the
// launch-date preference, empirical CDFs for the figure
// reproductions, and basic summary statistics.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrTooFewSamples is returned when a test needs more data.
var ErrTooFewSamples = errors.New("stats: too few samples")

// Mean returns the arithmetic mean. NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanStd returns mean and population standard deviation in one pass —
// the normalization the paper's feature clustering uses. For n = 1 the
// std is 0.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	mean = Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mean
		s += d * d
	}
	return mean, math.Sqrt(s / float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear
// interpolation between order statistics. NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is Quantile over ascending, non-empty s.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median is the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Pearson returns the Pearson correlation coefficient between two
// equal-length samples.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: pearson inputs have lengths %d and %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, ErrTooFewSamples
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: pearson input has zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MannWhitneyResult reports the U statistic and two-sided p-value of
// the Mann-Whitney U test (normal approximation with tie and
// continuity corrections, appropriate for the sample sizes here).
type MannWhitneyResult struct {
	U float64 // the smaller of U1 and U2
	Z float64 // standardized statistic
	P float64 // two-sided p-value
	// N1, N2 are the sample sizes.
	N1, N2 int
}

// MannWhitneyU tests whether two independent samples come from the
// same distribution. Requires at least 8 observations per side for the
// normal approximation to be meaningful.
func MannWhitneyU(a, b []float64) (MannWhitneyResult, error) {
	n1, n2 := len(a), len(b)
	if n1 < 8 || n2 < 8 {
		return MannWhitneyResult{}, fmt.Errorf("%w: mann-whitney needs >= 8 per group, got %d and %d", ErrTooFewSamples, n1, n2)
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign midranks; accumulate tie correction.
	ranks := make([]float64, len(all))
	tieCorrection := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieCorrection += t*t*t - t
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	u2 := fn1*fn2 - u1
	u := math.Min(u1, u2)

	mu := fn1 * fn2 / 2
	n := fn1 + fn2
	sigma2 := fn1 * fn2 / 12 * ((n + 1) - tieCorrection/(n*(n-1)))
	if sigma2 <= 0 {
		// All values tied: the distributions are indistinguishable.
		return MannWhitneyResult{U: u, Z: 0, P: 1, N1: n1, N2: n2}, nil
	}
	// Continuity correction.
	z := (u - mu + 0.5) / math.Sqrt(sigma2)
	p := 2 * normalCDF(-math.Abs(z))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{U: u, Z: z, P: p, N1: n1, N2: n2}, nil
}

// normalCDF is the standard normal CDF via erfc.
func normalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// ECDF is an empirical cumulative distribution function over a sample
// held in one or more runs, each sorted in place. A sample kept in
// blocks is read where it lies: nothing is copied into one slice.
type ECDF struct {
	runs [][]float64
	n    int
}

// NewECDF builds an ECDF over the sample held in runs. It sorts each
// run in place and keeps them: the caller hands the sample over.
func NewECDF(runs ...[]float64) (*ECDF, error) {
	n := 0
	for _, r := range runs {
		sort.Float64s(r)
		n += len(r)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: ecdf of empty sample", ErrTooFewSamples)
	}
	return &ECDF{runs: runs, n: n}, nil
}

// floatLess is sort.Float64s's order: NaN before every other value.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// Median returns the sample's median, as Median of the sample does:
// quantileSorted's interpolation between the two middle order
// statistics, which merging the runs finds.
func (e *ECDF) Median() float64 {
	pos := 0.5 * float64(e.n-1)
	lo := int(math.Floor(pos))
	a, b := e.orderPair(lo)
	if lo+1 >= e.n {
		return a
	}
	frac := pos - float64(lo)
	return a*(1-frac) + b*frac
}

// orderPair returns the sample's k-th smallest value (from 0) in
// sort.Float64s's order and the one after it (a again when k is the
// last). It merges the runs through a min-heap of their heads.
func (e *ECDF) orderPair(k int) (a, b float64) {
	h := make(runHeap, 0, len(e.runs))
	for _, r := range e.runs {
		if len(r) > 0 {
			h = append(h, r)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for ; k > 0; k-- {
		h.pop()
	}
	a = h.pop()
	if len(h) == 0 {
		return a, a
	}
	return a, h[0][0]
}

// runHeap is a min-heap of non-empty sorted runs, keyed by each run's
// head in floatLess's order.
type runHeap [][]float64

// pop removes and returns the smallest head.
func (h *runHeap) pop() float64 {
	r := (*h)[0]
	v := r[0]
	if len(r) > 1 {
		(*h)[0] = r[1:]
	} else {
		last := len(*h) - 1
		(*h)[0] = (*h)[last]
		*h = (*h)[:last]
	}
	h.down(0)
	return v
}

// down restores the heap order below i.
func (h runHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && floatLess(h[r][0], h[m][0]) {
			m = r
		}
		if !floatLess(h[m][0], h[i][0]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// At returns P(X <= x), counting through every run.
func (e *ECDF) At(x float64) float64 {
	// Each run's index of its first element > x.
	y := math.Nextafter(x, math.Inf(1))
	i := 0
	for _, r := range e.runs {
		i += sort.SearchFloat64s(r, y)
	}
	return float64(i) / float64(e.n)
}

// Len returns the sample size.
func (e *ECDF) Len() int { return e.n }

// Points renders the ECDF as n evenly spaced (x, F(x)) pairs spanning
// the sample range — the series the figure reproductions print.
func (e *ECDF) Points(n int) [][2]float64 {
	if n < 2 {
		n = 2
	}
	// The sample's first and last values in sort order: the least
	// run head and the greatest run tail.
	var lo, hi float64
	first := true
	for _, r := range e.runs {
		if len(r) == 0 {
			continue
		}
		if first || floatLess(r[0], lo) {
			lo = r[0]
		}
		if first || floatLess(hi, r[len(r)-1]) {
			hi = r[len(r)-1]
		}
		first = false
	}
	out := make([][2]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		if i == n-1 {
			x = hi // avoid floating-point rounding below the max
		}
		out[i] = [2]float64{x, e.At(x)}
	}
	return out
}

// Proportion returns the fraction of xs for which pred holds. NaN for
// empty input.
func Proportion(xs []float64, pred func(float64) bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, x := range xs {
		if pred(x) {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
