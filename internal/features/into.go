package features

// The featurizer: ClusterInto assigns each available satellite to its
// z-score cluster and VectorInto renders the model input, both into
// caller-owned scratch, so training sweeps and the online serving path
// (internal/predict) share one implementation that allocates nothing
// once the Slot's key slice has grown. The moments are accumulated in
// the same order as stats.MeanStd; the tests hold the result
// bit-identical to a straightforward allocating reference.

import (
	"fmt"
	"math"
)

// meanStdSats accumulates one feature's mean and population std
// straight off the satellite slice, mirroring stats.MeanStd's
// arithmetic (serial sum for the mean, then a serial sum of squared
// deviations).
func meanStdSats(sats []Sat, get func(*Sat) float64) (mean, std float64) {
	s := 0.0
	for i := range sats {
		s += get(&sats[i])
	}
	mean = s / float64(len(sats))
	s = 0.0
	for i := range sats {
		d := get(&sats[i]) - mean
		s += d * d
	}
	return mean, math.Sqrt(s / float64(len(sats)))
}

// ClusterInto assigns each available satellite to its z-score cluster.
// The Slot's key slice is reused (growing its backing array only while
// the available set does) and the counts are zeroed in place.
func ClusterInto(sl *Slot, sats []Sat) error {
	if len(sats) == 0 {
		return fmt.Errorf("features: empty available set")
	}
	sl.AzMean, sl.AzStd = meanStdSats(sats, func(s *Sat) float64 { return s.AzimuthDeg })
	sl.ElMean, sl.ElStd = meanStdSats(sats, func(s *Sat) float64 { return s.ElevationDeg })
	sl.AgeMean, sl.AgeStd = meanStdSats(sats, func(s *Sat) float64 { return s.AgeYears })
	sl.Keys = sl.Keys[:0]
	sl.Counts = [NumClusters]int{}
	for i := range sats {
		s := &sats[i]
		k := Key{
			AzZ:    clampZ(s.AzimuthDeg, sl.AzMean, sl.AzStd),
			ElZ:    clampZ(s.ElevationDeg, sl.ElMean, sl.ElStd),
			AgeZ:   clampZ(s.AgeYears, sl.AgeMean, sl.AgeStd),
			Sunlit: s.Sunlit,
		}
		sl.Keys = append(sl.Keys, k)
		sl.Counts[k.Index()]++
	}
	return nil
}

// VectorInto renders the model input into caller scratch of length
// VectorLen: local hour (0-23) followed by the per-cluster
// availability counts.
func (sl *Slot) VectorInto(localHour int, v []float64) error {
	if len(v) != VectorLen {
		return fmt.Errorf("features: vector scratch length %d, want %d", len(v), VectorLen)
	}
	v[0] = float64(localHour)
	for i, c := range sl.Counts {
		v[1+i] = float64(c)
	}
	return nil
}

// RowInto is the labelled §6 row of one slot: it clusters sats into sl,
// renders the model input for localHour into x (length VectorLen) and
// returns the cluster index of sats[chosen], the row's label. The
// dataset builder and the online observe path both build rows here.
func RowInto(sl *Slot, sats []Sat, localHour, chosen int, x []float64) (int, error) {
	if err := ClusterInto(sl, sats); err != nil {
		return 0, err
	}
	key, err := sl.keyOf(chosen)
	if err != nil {
		return 0, err
	}
	if err := sl.VectorInto(localHour, x); err != nil {
		return 0, err
	}
	return key.Index(), nil
}
