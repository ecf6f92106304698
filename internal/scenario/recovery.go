package scenario

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/scheduler"
)

// The planted-preference recovery experiment: a scenario plants known
// scheduler weights, a campaign records chosen-vs-available
// observations, and the paper's inference pipeline (§5 behavioral
// effects + the §6 forest) must recover the planted preference
// ordering. This is the generalization payoff — the methodology
// working on geometry (Walker-star) and preferences the study never
// saw.
//
// Every axis is measured the same way, so magnitudes are comparable:
// the chosen satellite's percentile rank (midrank ties) on that axis
// within the slot's available set, averaged over slots where the axis
// varies, rescaled to [-1, 1] (0 = no preference, 1 = always strictly
// top). The forest-side twin ranks the *predicted* cluster key against
// the availability-weighted cluster distribution of each feature row.
// Binary axes (sunlit) cap below 1 because ties midrank — fine for
// well-separated planted weights, the documented resolution limit.

// RecoveryAxes lists the measured preference axes in report order.
var RecoveryAxes = []string{"elevation", "sunlit", "recency"}

// RecoveryResult is the planted-vs-recovered comparison.
type RecoveryResult struct {
	Planted scheduler.Weights
	// PlantedOrder is the axes sorted by descending planted weight.
	PlantedOrder []string
	// ObservedEffects / ObservedOrder come from the §5-style
	// behavioral ranks over raw observations.
	ObservedEffects map[string]float64
	ObservedOrder   []string
	// ForestEffects / ForestOrder come from the §6 forest's top-1
	// predicted clusters.
	ForestEffects map[string]float64
	ForestOrder   []string
	// OrderRecovered: the forest order matches the planted order.
	// ObservedOrderRecovered: the behavioral order does too.
	OrderRecovered         bool
	ObservedOrderRecovered bool
	// ModelTop1/BaselineTop1 are holdout top-1 accuracies;
	// ModelBeatsBaseline is the paper's "model learned something"
	// criterion.
	ModelTop1, BaselineTop1 float64
	ModelBeatsBaseline      bool
	// Rows is the number of usable (served) observations.
	Rows int
}

// plantedOrder sorts the recovery axes by their planted weights,
// requiring strict separation — equal weights have no recoverable
// order.
func plantedOrder(w scheduler.Weights) ([]string, error) {
	vals := map[string]float64{"elevation": w.Elevation, "sunlit": w.Sunlit, "recency": w.Recency}
	if vals["elevation"] == vals["sunlit"] || vals["sunlit"] == vals["recency"] || vals["elevation"] == vals["recency"] {
		return nil, fmt.Errorf("scenario: planted weights must strictly separate elevation/sunlit/recency (got %.3g/%.3g/%.3g)",
			vals["elevation"], vals["sunlit"], vals["recency"])
	}
	return orderOf(vals), nil
}

// orderOf returns the recovery axes sorted by descending value.
func orderOf(vals map[string]float64) []string {
	out := append([]string(nil), RecoveryAxes...)
	sort.SliceStable(out, func(i, j int) bool { return vals[out[i]] > vals[out[j]] })
	return out
}

// rankAccum averages percentile ranks for one axis.
type rankAccum struct {
	sum float64
	n   int
}

// add folds in one slot's rank: below/equal/total are the axis-value
// counts (or weights) relative to the chosen value, equal including
// the chosen itself. Slots where the axis does not vary carry no
// preference information and are skipped.
func (a *rankAccum) add(below, equal, total float64) {
	if total <= 0 || equal >= total {
		return
	}
	a.sum += (below + equal/2) / total
	a.n++
}

// effect rescales the mean rank to [-1, 1].
func (a *rankAccum) effect() float64 {
	if a.n == 0 {
		return 0
	}
	return 2*(a.sum/float64(a.n)) - 1
}

// RecoveryRanks folds the behavioral side of the recovery from the
// campaign's observation stream: per axis, the chosen satellite's rank
// within each slot's available set. Add it to the stream's consumers;
// the zero value is ready.
type RecoveryRanks struct {
	elev, sun, rec rankAccum
	rows           int
}

// Add folds in one observation; slots without a choice (no chosen
// satellite, or fewer than two available) carry no ranks.
func (r *RecoveryRanks) Add(o core.Observation) error {
	c, ok := o.Chosen()
	if !ok || len(o.Available) < 2 {
		return nil
	}
	r.rows++
	var elevBelow, elevEq, sunBelow, sunEq, recBelow, recEq float64
	for _, a := range o.Available {
		switch {
		case a.ElevationDeg < c.ElevationDeg:
			elevBelow++
		case a.ElevationDeg == c.ElevationDeg:
			elevEq++
		}
		switch {
		case !a.Sunlit && c.Sunlit:
			sunBelow++
		case a.Sunlit == c.Sunlit:
			sunEq++
		}
		// Recency prefers newer hardware: smaller age ranks higher.
		switch {
		case a.AgeYears > c.AgeYears:
			recBelow++
		case a.AgeYears == c.AgeYears:
			recEq++
		}
	}
	n := float64(len(o.Available))
	r.elev.add(elevBelow, elevEq, n)
	r.sun.add(sunBelow, sunEq, n)
	r.rec.add(recBelow, recEq, n)
	return nil
}

// axisValue extracts one axis's scalar from a cluster key (recency is
// negated age so that "higher = preferred" holds on every axis).
func axisValue(axis string, k features.Key) float64 {
	switch axis {
	case "elevation":
		return float64(k.ElZ)
	case "sunlit":
		if k.Sunlit {
			return 1
		}
		return 0
	case "recency":
		return -float64(k.AgeZ)
	}
	return 0
}

// forestEffects ranks each row's top-1 predicted cluster against the
// row's availability-weighted cluster distribution.
func forestEffects(ranker ml.Ranker, X [][]float64) (map[string]float64, error) {
	accums := map[string]*rankAccum{}
	for _, ax := range RecoveryAxes {
		accums[ax] = &rankAccum{}
	}
	for _, x := range X {
		ranked, err := ranker.RankClasses(x)
		if err != nil {
			return nil, err
		}
		if len(ranked) == 0 {
			continue
		}
		pred, err := features.KeyFromIndex(ranked[0])
		if err != nil {
			return nil, err
		}
		counts := x[1:] // x[0] is local hour
		for _, ax := range RecoveryAxes {
			pv := axisValue(ax, pred)
			var below, equal, total float64
			for ci, w := range counts {
				if w <= 0 {
					continue
				}
				k, err := features.KeyFromIndex(ci)
				if err != nil {
					return nil, err
				}
				v := axisValue(ax, k)
				total += w
				switch {
				case v < pv:
					below += w
				case v == pv:
					equal += w
				}
			}
			accums[ax].add(below, equal, total)
		}
	}
	out := make(map[string]float64, len(RecoveryAxes))
	for _, ax := range RecoveryAxes {
		out[ax] = accums[ax].effect()
	}
	return out, nil
}

// sameOrder reports whether two axis orderings agree.
func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunPreferenceRecovery executes the inference side of the planted-
// preference experiment on one campaign, given its behavioral ranks
// and its §6 dataset: §6 forest training (with the given model
// config), and the planted-vs-recovered order comparison.
func RunPreferenceRecovery(ctx context.Context, ranks *RecoveryRanks, d *ml.Dataset, planted scheduler.Weights, mcfg core.ModelConfig) (*RecoveryResult, error) {
	want, err := plantedOrder(planted)
	if err != nil {
		return nil, err
	}
	if ranks.rows == 0 {
		return nil, fmt.Errorf("scenario: no served observations with choice to recover preferences from")
	}
	observed := map[string]float64{
		"elevation": ranks.elev.effect(),
		"sunlit":    ranks.sun.effect(),
		"recency":   ranks.rec.effect(),
	}
	res, err := core.TrainModelCtx(ctx, d, mcfg)
	if err != nil {
		return nil, err
	}
	forestFx, err := forestEffects(ml.ForestRanker{Forest: res.Forest}, d.X)
	if err != nil {
		return nil, err
	}
	r := &RecoveryResult{
		Planted:         planted,
		PlantedOrder:    want,
		ObservedEffects: observed,
		ObservedOrder:   orderOf(observed),
		ForestEffects:   forestFx,
		ForestOrder:     orderOf(forestFx),
		ModelTop1:       res.ModelTopK[0],
		BaselineTop1:    res.BaselineTopK[0],
		Rows:            ranks.rows,
	}
	r.OrderRecovered = sameOrder(r.ForestOrder, want)
	r.ObservedOrderRecovered = sameOrder(r.ObservedOrder, want)
	r.ModelBeatsBaseline = r.ModelTop1 > r.BaselineTop1
	return r, nil
}
