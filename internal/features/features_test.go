package features

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// cluster runs the featurizer into a fresh Slot.
func cluster(sats []Sat) (*Slot, error) {
	var sl Slot
	if err := ClusterInto(&sl, sats); err != nil {
		return nil, err
	}
	return &sl, nil
}

// vector renders sl's model input into a fresh vector.
func vector(sl *Slot, localHour int) []float64 {
	v := make([]float64, VectorLen)
	if err := sl.VectorInto(localHour, v); err != nil {
		panic(err)
	}
	return v
}

func TestKeyIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumClusters; i++ {
		k, err := KeyFromIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		if k.Index() != i {
			t.Fatalf("index %d -> %v -> %d", i, k, k.Index())
		}
	}
	if _, err := KeyFromIndex(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := KeyFromIndex(NumClusters); err == nil {
		t.Error("overflow index accepted")
	}
}

func TestKeyIndexInjective(t *testing.T) {
	seen := map[int]Key{}
	for az := -ZRange; az <= ZRange; az++ {
		for el := -ZRange; el <= ZRange; el++ {
			for age := -ZRange; age <= ZRange; age++ {
				for _, sun := range []bool{false, true} {
					k := Key{az, el, age, sun}
					i := k.Index()
					if prev, dup := seen[i]; dup {
						t.Fatalf("keys %v and %v share index %d", prev, k, i)
					}
					seen[i] = k
				}
			}
		}
	}
	if len(seen) != NumClusters {
		t.Fatalf("enumerated %d keys, want %d", len(seen), NumClusters)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{AzZ: -1, ElZ: 2, AgeZ: 0, Sunlit: true}
	if got := k.String(); got != "(-1,2,0,1)" {
		t.Errorf("String = %q", got)
	}
}

func TestClusterBasics(t *testing.T) {
	sats := []Sat{
		{AzimuthDeg: 0, ElevationDeg: 30, AgeYears: 1, Sunlit: true},
		{AzimuthDeg: 90, ElevationDeg: 50, AgeYears: 2, Sunlit: true},
		{AzimuthDeg: 180, ElevationDeg: 70, AgeYears: 3, Sunlit: false},
	}
	sl, err := cluster(sats)
	if err != nil {
		t.Fatal(err)
	}
	if len(sl.Keys) != 3 {
		t.Fatal("keys length")
	}
	// Middle satellite is the mean on every numeric feature.
	if k := sl.Keys[1]; k.AzZ != 0 || k.ElZ != 0 || k.AgeZ != 0 || !k.Sunlit {
		t.Errorf("middle key = %v", k)
	}
	// Extremes land on opposite sides.
	if sl.Keys[0].ElZ >= 0 || sl.Keys[2].ElZ <= 0 {
		t.Errorf("extreme keys: %v %v", sl.Keys[0], sl.Keys[2])
	}
	// Counts sum to the number of satellites.
	sum := 0
	for _, c := range sl.Counts {
		sum += c
	}
	if sum != 3 {
		t.Errorf("counts sum to %d", sum)
	}
}

func TestClusterEmpty(t *testing.T) {
	if _, err := cluster(nil); err == nil {
		t.Error("empty set accepted")
	}
}

func TestClusterConstantFeature(t *testing.T) {
	// All identical: every satellite in the (0,0,0,s) cluster.
	sats := []Sat{
		{AzimuthDeg: 10, ElevationDeg: 40, AgeYears: 2, Sunlit: false},
		{AzimuthDeg: 10, ElevationDeg: 40, AgeYears: 2, Sunlit: false},
	}
	sl, err := cluster(sats)
	if err != nil {
		t.Fatal(err)
	}
	want := Key{0, 0, 0, false}
	for _, k := range sl.Keys {
		if k != want {
			t.Errorf("key = %v, want %v", k, want)
		}
	}
}

func TestClusterClamping(t *testing.T) {
	// One extreme outlier must clamp to ±2, not overflow the key space.
	sats := []Sat{
		{AzimuthDeg: 0, ElevationDeg: 30, AgeYears: 0, Sunlit: true},
		{AzimuthDeg: 1, ElevationDeg: 30, AgeYears: 0, Sunlit: true},
		{AzimuthDeg: 2, ElevationDeg: 30, AgeYears: 0, Sunlit: true},
		{AzimuthDeg: 3, ElevationDeg: 30, AgeYears: 0, Sunlit: true},
		{AzimuthDeg: 359, ElevationDeg: 30, AgeYears: 0, Sunlit: true},
	}
	sl, err := cluster(sats)
	if err != nil {
		t.Fatal(err)
	}
	if k := sl.Keys[4]; k.AzZ != 2 {
		t.Errorf("outlier AzZ = %d, want clamp to 2", k.AzZ)
	}
}

func TestVector(t *testing.T) {
	sats := []Sat{{AzimuthDeg: 5, ElevationDeg: 45, AgeYears: 1, Sunlit: true}}
	sl, err := cluster(sats)
	if err != nil {
		t.Fatal(err)
	}
	v := vector(sl, 14)
	if len(v) != VectorLen {
		t.Fatalf("vector length %d", len(v))
	}
	if v[0] != 14 {
		t.Errorf("hour = %v", v[0])
	}
	// Exactly one cluster has count 1.
	n := 0.0
	for _, x := range v[1:] {
		n += x
	}
	if n != 1 {
		t.Errorf("total count = %v", n)
	}
	k, err := sl.keyOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if v[1+k.Index()] != 1 {
		t.Error("count not at the satellite's cluster")
	}
	if _, err := sl.keyOf(5); err == nil {
		t.Error("out-of-range keyOf accepted")
	}
}

func TestVectorCountsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		sats := make([]Sat, n)
		for i := range sats {
			sats[i] = Sat{
				AzimuthDeg:   rng.Float64() * 360,
				ElevationDeg: 25 + rng.Float64()*65,
				AgeYears:     rng.Float64() * 4,
				Sunlit:       rng.Intn(2) == 0,
			}
		}
		sl, err := cluster(sats)
		if err != nil {
			return false
		}
		v := vector(sl, 0)
		sum := 0.0
		for _, x := range v[1:] {
			sum += x
		}
		if int(sum) != n {
			return false
		}
		// Every satellite's key must be counted.
		for i := range sats {
			k, err := sl.keyOf(i)
			if err != nil || v[1+k.Index()] < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFeatureName(t *testing.T) {
	if FeatureName(0) != "local_hour" {
		t.Error("feature 0")
	}
	k := Key{AzZ: 1, ElZ: -1, AgeZ: -1, Sunlit: true}
	if got := FeatureName(1 + k.Index()); got != "(1,-1,-1,1)" {
		t.Errorf("FeatureName = %q", got)
	}
}

func TestBaselineRanking(t *testing.T) {
	v := make([]float64, VectorLen)
	v[0] = 3 // hour, ignored
	v[1+10] = 7
	v[1+20] = 9
	v[1+30] = 9 // tie with 20: lower index first
	ranked, err := BaselineRanking(v)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0] != 20 || ranked[1] != 30 || ranked[2] != 10 {
		t.Errorf("top ranks = %v", ranked[:3])
	}
	if len(ranked) != NumClusters {
		t.Errorf("ranking length %d", len(ranked))
	}
	if _, err := BaselineRanking(v[:5]); err == nil {
		t.Error("short vector accepted")
	}
}
