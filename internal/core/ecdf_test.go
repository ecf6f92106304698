package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// sortedECDF is the copy-and-sort ECDF: one sorted copy of the
// sample, searched and indexed directly. It is the oracle for
// floatSeries.ecdf, which reads the blocks in place.
type sortedECDF []float64

func newSortedECDF(xs []float64) sortedECDF {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s
}

// at is P(X <= x).
func (s sortedECDF) at(x float64) float64 {
	i := sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s))
}

// points renders n evenly spaced (x, F(x)) pairs over the sample range.
func (s sortedECDF) points(n int) [][2]float64 {
	if n < 2 {
		n = 2
	}
	lo, hi := s[0], s[len(s)-1]
	out := make([][2]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		if i == n-1 {
			x = hi
		}
		out[i] = [2]float64{x, s.at(x)}
	}
	return out
}

// sameFloat is == with NaN equal to NaN. Sorting does not order -0
// and +0, so the two ECDFs may pick either where both occur.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// checkSeriesECDF holds s's in-place ECDF, median, counts and shares
// to the copy-and-sort oracle over want, its values in any order.
func checkSeriesECDF(t *testing.T, s *floatSeries, want []float64, points int) {
	t.Helper()
	oracle := newSortedECDF(want)
	e, err := s.ecdf()
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != len(want) || s.n != len(want) {
		t.Fatalf("Len %d, series %d, want %d", e.Len(), s.n, len(want))
	}
	if g, w := e.Median(), stats.Median(want); !sameFloat(g, w) {
		t.Errorf("n=%d: median %v, want %v", len(want), g, w)
	}
	for _, n := range []int{points, 2} {
		got, exp := e.Points(n), oracle.points(n)
		for i := range exp {
			if !sameFloat(got[i][0], exp[i][0]) || got[i][1] != exp[i][1] {
				t.Fatalf("n=%d: Points(%d)[%d] = %v, want %v", len(want), n, i, got[i], exp[i])
			}
		}
	}
	probes := append(slices.Clone(want), math.Inf(-1), math.Inf(1), math.NaN())
	for _, v := range want {
		probes = append(probes, math.Nextafter(v, math.Inf(-1)), v+0.5)
	}
	for _, x := range probes {
		if g, w := e.At(x), oracle.at(x); g != w {
			t.Fatalf("n=%d: At(%v) = %v, want %v", len(want), x, g, w)
		}
	}
	high := func(v float64) bool { return v >= 45 }
	if g, w := s.share(high), stats.Proportion(want, high); !sameFloat(g, w) {
		t.Errorf("n=%d: share %v, want %v", len(want), g, w)
	}
}

// TestSeriesECDFMatchesSorted: a series' ECDF, read in place over its
// sorted blocks, gives the same counts, Points, median and shares as
// one sorted copy, at sizes around every block boundary (blocks of 8,
// 16, …, 256 values, then 256 each), for distinct values, heavy ties,
// one repeated value and a single value. Pooling two series, as the
// §5.3 lift does, matches the oracle over their concatenation.
func TestSeriesECDFMatchesSorted(t *testing.T) {
	sizes := []int{1, 2, 3}
	for b, end := minBlock, 0; end < 1100; b = min(2*b, maxBlock) {
		end += b
		sizes = append(sizes, b-1, b, b+1, end-1, end, end+1)
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	rng := rand.New(rand.NewSource(7))
	draws := map[string]func() float64{
		"distinct": func() float64 { return 25 + 65*rng.Float64() },
		"ties":     func() float64 { return float64(25 + 5*rng.Intn(14)) },
		"constant": func() float64 { return 45 },
	}
	for name, draw := range draws {
		for _, n := range sizes {
			var s floatSeries
			want := make([]float64, n)
			for i := range want {
				want[i] = draw()
				s.add(want[i])
			}
			checkSeriesECDF(t, &s, want, 27)
			if t.Failed() {
				t.Fatalf("%s values, n=%d", name, n)
			}
		}
	}
	// Pooled: the first series' last block is partly filled.
	var a, b, pooled floatSeries
	var all []float64
	for i := 0; i < 300; i++ {
		v := float64(rng.Intn(40))
		a.add(v)
		all = append(all, v)
	}
	for i := 0; i < 57; i++ {
		v := float64(rng.Intn(40))
		b.add(v)
		all = append(all, v)
	}
	checkSeriesECDF(t, &a, all[:300], 27)
	pooled.pool(&a)
	pooled.pool(&b)
	checkSeriesECDF(t, &pooled, all, 27)
}

// FuzzSeriesECDFMatchesSorted: for any sample (each 2-byte word one
// value, from a set with ties, ±0, ±Inf and NaN) split over one or two
// series, the in-place ECDF matches one sorted copy.
func FuzzSeriesECDFMatchesSorted(f *testing.F) {
	f.Add([]byte{1, 0}, uint8(27), uint16(0))
	f.Add([]byte{3, 0, 1, 0, 2, 0, 2, 0}, uint8(5), uint16(2))
	f.Add(make([]byte, 2*257), uint8(27), uint16(100))
	f.Add([]byte{0xff, 0xff, 0xfe, 0xff, 0xfd, 0xff, 0xfc, 0xff, 7, 0}, uint8(3), uint16(1))
	f.Add([]byte{7, 0, 9, 0, 0xff, 0xff, 0xfe, 0xff}, uint8(4), uint16(2)) // NaN in the second series
	f.Fuzz(func(t *testing.T, data []byte, points uint8, split uint16) {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		var want []float64
		for i := 0; i+1 < len(data) && len(want) < 2000; i += 2 {
			w := binary.LittleEndian.Uint16(data[i:])
			if k := 0xffff - int(w); k < len(special) {
				want = append(want, special[k])
			} else {
				want = append(want, float64(int(w%512)-256)/4)
			}
		}
		if len(want) == 0 {
			return
		}
		cut := int(split) % (len(want) + 1)
		var a, b, pooled floatSeries
		for _, v := range want[:cut] {
			a.add(v)
		}
		for _, v := range want[cut:] {
			b.add(v)
		}
		pooled.pool(&a)
		pooled.pool(&b)
		checkSeriesECDF(t, &pooled, want, int(points))
	})
}
