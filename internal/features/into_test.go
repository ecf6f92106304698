package features

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
)

// referenceCluster is the original allocating Cluster featurizer —
// three moment slices through stats.MeanStd and a fresh Slot — kept as
// the oracle ClusterInto must match bit for bit.
func referenceCluster(sats []Sat) (*Slot, error) {
	if len(sats) == 0 {
		return nil, fmt.Errorf("features: empty available set")
	}
	az := make([]float64, len(sats))
	el := make([]float64, len(sats))
	age := make([]float64, len(sats))
	for i, s := range sats {
		az[i] = s.AzimuthDeg
		el[i] = s.ElevationDeg
		age[i] = s.AgeYears
	}
	sl := &Slot{Keys: make([]Key, len(sats))}
	sl.AzMean, sl.AzStd = stats.MeanStd(az)
	sl.ElMean, sl.ElStd = stats.MeanStd(el)
	sl.AgeMean, sl.AgeStd = stats.MeanStd(age)
	for i, s := range sats {
		k := Key{
			AzZ:    clampZ(s.AzimuthDeg, sl.AzMean, sl.AzStd),
			ElZ:    clampZ(s.ElevationDeg, sl.ElMean, sl.ElStd),
			AgeZ:   clampZ(s.AgeYears, sl.AgeMean, sl.AgeStd),
			Sunlit: s.Sunlit,
		}
		sl.Keys[i] = k
		sl.Counts[k.Index()]++
	}
	return sl, nil
}

// referenceVector is the allocating oracle for VectorInto.
func referenceVector(sl *Slot, localHour int) []float64 {
	v := make([]float64, VectorLen)
	v[0] = float64(localHour)
	for i, c := range sl.Counts {
		v[1+i] = float64(c)
	}
	return v
}

func randomSats(rng *rand.Rand, n int) []Sat {
	sats := make([]Sat, n)
	for i := range sats {
		sats[i] = Sat{
			AzimuthDeg:   rng.Float64() * 360,
			ElevationDeg: 25 + rng.Float64()*65,
			AgeYears:     rng.Float64() * 5,
			Sunlit:       rng.Intn(2) == 0,
		}
	}
	return sats
}

// TestClusterIntoMatchesCluster: the zero-alloc featurizer must be
// bit-identical to the allocating reference — keys, counts, and every
// moment float — including on degenerate sets (single satellite, zero
// variance).
func TestClusterIntoMatchesCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sl Slot
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		sats := randomSats(rng, n)
		if trial%7 == 0 {
			// Zero-variance sets exercise the std==0 collapse.
			for i := range sats {
				sats[i].ElevationDeg = 45
			}
		}
		want, err := referenceCluster(sats)
		if err != nil {
			t.Fatal(err)
		}
		if err := ClusterInto(&sl, sats); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sl.Keys, want.Keys) {
			t.Fatalf("trial %d: keys differ: %v vs %v", trial, sl.Keys, want.Keys)
		}
		if sl.Counts != want.Counts {
			t.Fatalf("trial %d: counts differ", trial)
		}
		got := [6]float64{sl.AzMean, sl.AzStd, sl.ElMean, sl.ElStd, sl.AgeMean, sl.AgeStd}
		exp := [6]float64{want.AzMean, want.AzStd, want.ElMean, want.ElStd, want.AgeMean, want.AgeStd}
		if got != exp {
			t.Fatalf("trial %d: moments differ: %v vs %v", trial, got, exp)
		}

		var vec [VectorLen]float64
		if err := sl.VectorInto(13, vec[:]); err != nil {
			t.Fatal(err)
		}
		if wantVec := referenceVector(want, 13); !reflect.DeepEqual(vec[:], wantVec) {
			t.Fatalf("trial %d: vectors differ", trial)
		}
	}
	if err := ClusterInto(&sl, nil); err == nil {
		t.Error("empty set accepted")
	}
	if err := sl.VectorInto(0, make([]float64, 3)); err == nil {
		t.Error("short vector scratch accepted")
	}
}

// TestClusterIntoZeroAlloc pins the serving-path property the
// BenchmarkPredictServe acceptance depends on: once the Slot's key
// slice has grown to the working-set size, ClusterInto and VectorInto
// allocate nothing.
func TestClusterIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sats := randomSats(rng, 32)
	var sl Slot
	vec := make([]float64, VectorLen)
	if err := ClusterInto(&sl, sats); err != nil { // warm the key slice
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ClusterInto(&sl, sats); err != nil {
			t.Fatal(err)
		}
		if err := sl.VectorInto(7, vec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ClusterInto+VectorInto = %v allocs/op, want 0", allocs)
	}
}

// TestRowIntoMatchesReference: the labelled row is the reference
// featurizer's vector for the slot and the reference cluster index of
// the chosen satellite, and an empty set or an out-of-range choice is
// an error.
func TestRowIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sl Slot
	x := make([]float64, VectorLen)
	for trial := 0; trial < 50; trial++ {
		sats := randomSats(rng, 1+rng.Intn(40))
		chosen := rng.Intn(len(sats))
		label, err := RowInto(&sl, sats, trial%24, chosen, x)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceCluster(sats)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Keys[chosen].Index(); label != want {
			t.Fatalf("trial %d: label %d, reference %d", trial, label, want)
		}
		if want := referenceVector(ref, trial%24); !reflect.DeepEqual(x, want) {
			t.Fatalf("trial %d: row vector differs from the reference", trial)
		}
	}
	if _, err := RowInto(&sl, nil, 0, 0, x); err == nil {
		t.Error("empty available set accepted")
	}
	if _, err := RowInto(&sl, randomSats(rng, 3), 0, 3, x); err == nil {
		t.Error("out-of-range chosen index accepted")
	}
}
