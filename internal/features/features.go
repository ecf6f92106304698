// Package features builds the model inputs from §6 of the paper.
//
// For each 15-second slot, the satellites available to a terminal are
// clustered by how many (population) standard deviations each of their
// features — azimuth, angle of elevation, age, sunlit state — sits
// from the per-slot mean of the available set. The z-scores are
// rounded to integers and clamped, so a cluster key like (1, 0, -1, 1)
// reads "azimuth one sigma above the mean, average elevation, age one
// sigma below the mean, sunlit". The model's feature vector is the
// terminal's local hour followed by the count of available satellites
// in each cluster; its prediction target is the cluster containing the
// satellite the scheduler chose.
package features

import (
	"fmt"
	"math"
)

// ZRange clamps rounded z-scores to [-ZRange, +ZRange]. With ±2 the
// key space stays small (5×5×5×2 = 250 clusters) while covering >95%
// of a roughly normal spread, matching the tuples the paper reports
// (e.g. "(x, 2, y, z)").
const ZRange = 2

// zLevels is the number of distinct clamped z values.
const zLevels = 2*ZRange + 1

// NumClusters is the size of the cluster key space.
const NumClusters = zLevels * zLevels * zLevels * 2

// VectorLen is the model feature vector length: local hour + one count
// per cluster.
const VectorLen = 1 + NumClusters

// Sat holds the publicly observable per-satellite features. Its JSON
// form is the satellite of predictd's wire messages.
type Sat struct {
	AzimuthDeg   float64 `json:"az"`
	ElevationDeg float64 `json:"el"`
	AgeYears     float64 `json:"age_years"`
	Sunlit       bool    `json:"sunlit"`
}

// Key is a cluster identity.
type Key struct {
	AzZ, ElZ, AgeZ int // clamped integer z-scores
	Sunlit         bool
}

// String renders the key the way the paper prints feature tuples.
func (k Key) String() string {
	s := 0
	if k.Sunlit {
		s = 1
	}
	return fmt.Sprintf("(%d,%d,%d,%d)", k.AzZ, k.ElZ, k.AgeZ, s)
}

// Index maps the key to [0, NumClusters).
func (k Key) Index() int {
	a := k.AzZ + ZRange
	e := k.ElZ + ZRange
	g := k.AgeZ + ZRange
	s := 0
	if k.Sunlit {
		s = 1
	}
	return ((a*zLevels+e)*zLevels+g)*2 + s
}

// KeyFromIndex inverts Index.
func KeyFromIndex(i int) (Key, error) {
	if i < 0 || i >= NumClusters {
		return Key{}, fmt.Errorf("features: cluster index %d out of [0,%d)", i, NumClusters)
	}
	k := Key{Sunlit: i%2 == 1}
	i /= 2
	k.AgeZ = i%zLevels - ZRange
	i /= zLevels
	k.ElZ = i%zLevels - ZRange
	i /= zLevels
	k.AzZ = i - ZRange
	return k, nil
}

// clampZ rounds and clamps a z-score. A zero std collapses the feature
// to the mean bucket.
func clampZ(v, mean, std float64) int {
	if std == 0 {
		return 0
	}
	z := math.Round((v - mean) / std)
	if z > ZRange {
		z = ZRange
	}
	if z < -ZRange {
		z = -ZRange
	}
	return int(z)
}

// Slot is the clustered view of one 15-second slot's available set.
type Slot struct {
	Keys []Key // cluster key per input satellite, same order
	// Counts[i] is the number of available satellites in cluster i.
	Counts [NumClusters]int
	// Moments kept for explainability.
	AzMean, AzStd   float64
	ElMean, ElStd   float64
	AgeMean, AgeStd float64
}

// keyOf returns the cluster key of input satellite i.
func (sl *Slot) keyOf(i int) (Key, error) {
	if i < 0 || i >= len(sl.Keys) {
		return Key{}, fmt.Errorf("features: satellite index %d out of range", i)
	}
	return sl.Keys[i], nil
}

// FeatureName describes vector element i for importance reporting:
// "local_hour" or the cluster tuple string.
func FeatureName(i int) string {
	if i == 0 {
		return "local_hour"
	}
	k, err := KeyFromIndex(i - 1)
	if err != nil {
		return fmt.Sprintf("invalid(%d)", i)
	}
	return k.String()
}

// BaselineRanking orders cluster indices by their availability count
// in the vector, descending — the paper's baseline model, which
// predicts the most-populated cluster(s). Ties break toward lower
// index for determinism.
func BaselineRanking(vector []float64) ([]int, error) {
	if len(vector) != VectorLen {
		return nil, fmt.Errorf("features: vector length %d, want %d", len(vector), VectorLen)
	}
	idx := make([]int, NumClusters)
	for i := range idx {
		idx[i] = i
	}
	counts := vector[1:]
	// Insertion sort by descending count keeps this dependency-free and
	// stable.
	for i := 1; i < len(idx); i++ {
		j := i
		for j > 0 && counts[idx[j]] > counts[idx[j-1]] {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	return idx, nil
}
