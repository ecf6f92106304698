package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7.0) > 1e-12 {
		t.Errorf("variance = %v", v)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("degenerate inputs should be NaN")
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, s := MeanStd(xs)
	if m != 5 || s != 2 { // population std of this classic example is 2
		t.Errorf("MeanStd = %v, %v", m, s)
	}
	_, s1 := MeanStd([]float64{3})
	if s1 != 0 {
		t.Errorf("single-sample std = %v", s1)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if Median(xs) != 3 {
		t.Error("median")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated input")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("r = %v", r)
	}
	for i := range y {
		y[i] = -y[i]
	}
	r, _ = Pearson(x, y)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("r = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance accepted")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r, err := Pearson(x, y)
		if err != nil {
			return true
		}
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMannWhitneySameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rejects := 0
	trials := 200
	for i := 0; i < trials; i++ {
		a := make([]float64, 40)
		b := make([]float64, 40)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		res, err := MannWhitneyU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			rejects++
		}
	}
	// Under H0 the rejection rate should be ~5%.
	rate := float64(rejects) / float64(trials)
	if rate > 0.12 {
		t.Errorf("false rejection rate = %v", rate)
	}
}

func TestMannWhitneyShiftedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := make([]float64, 60)
	b := make([]float64, 60)
	for j := range a {
		a[j] = rng.NormFloat64()
		b[j] = rng.NormFloat64() + 1.2 // clearly shifted
	}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Errorf("p = %v for strongly shifted samples", res.P)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	// Heavily tied data should still work (tie correction).
	a := []float64{1, 1, 1, 2, 2, 2, 3, 3, 3, 4}
	b := []float64{3, 3, 4, 4, 4, 5, 5, 5, 6, 6}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.01 {
		t.Errorf("p = %v for shifted tied samples", res.P)
	}
	// All-identical samples: p = 1.
	c := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	res, err = MannWhitneyU(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.99 {
		t.Errorf("p = %v for identical constant samples", res.P)
	}
}

func TestMannWhitneyTooFew(t *testing.T) {
	if _, err := MannWhitneyU([]float64{1, 2, 3}, []float64{4, 5, 6, 7, 8, 9, 10, 11}); err == nil {
		t.Error("small sample accepted")
	}
}

func TestMannWhitneyUStatisticRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 8 + rng.Intn(20)
		n2 := 8 + rng.Intn(20)
		a := make([]float64, n1)
		b := make([]float64, n2)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		res, err := MannWhitneyU(a, b)
		if err != nil {
			return false
		}
		// U ranges in [0, n1*n2/2] for the min convention; p in [0,1].
		return res.U >= 0 && res.U <= float64(n1*n2)/2+1e-9 && res.P >= 0 && res.P <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{3, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Median(); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Error("Len")
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("empty ECDF accepted")
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 5+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		if e.Median() != Median(xs) {
			return false
		}
		pts := e.Points(30)
		for i := 1; i < len(pts); i++ {
			if pts[i][1] < pts[i-1][1] {
				return false
			}
		}
		return pts[len(pts)-1][1] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProportion(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if p := Proportion(xs, func(v float64) bool { return v > 2 }); p != 0.5 {
		t.Errorf("proportion = %v", p)
	}
	if !math.IsNaN(Proportion(nil, func(float64) bool { return true })) {
		t.Error("empty proportion should be NaN")
	}
}

// Variance returns the unbiased sample variance. NaN for n < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}
