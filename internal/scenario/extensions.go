package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scheduler"
	"repro/internal/stats"
)

// The paper's §8 future work, implemented as comparisons between a
// built scenario and its siblings: the same spec with one field
// edited, built through the same Build.
//
//   - Hemisphere generalization: the GSO exclusion zone sits in the
//     southern sky for northern terminals and in the northern sky for
//     southern terminals, so the scheduler's directional preference
//     should flip across the equator.
//   - Load sensitivity: the paper hypothesizes that unobservable
//     satellite load bounds the model's accuracy. With our simulated
//     controller the hypothesis is testable: remove the hidden load
//     term and the model should get more accurate.
//   - GSO ablation: disabling the exclusion zone should erase most of
//     the north preference, confirming the paper's §5.1 rationale.

// sibling builds a §8 ablation twin of b: a deep copy of b's spec
// (worker pools included) with edit applied, on b's index setting but
// with no registry or decision ring, so the twin's campaigns stay out
// of the parent's counters and trace.
func (b *Built) sibling(edit func(*Spec)) (*Built, error) {
	s, err := b.Spec.clone()
	if err != nil {
		return nil, err
	}
	edit(s)
	sib, err := s.Build(BuildOptions{DisableIndex: b.opt.DisableIndex})
	if err != nil {
		return nil, err
	}
	sib.Env.Ctx = b.Env.Ctx
	return sib, nil
}

// The §8 sibling edits: each changes only the ablated field.
func southernSites(s *Spec) { s.Terminals = TerminalsSpec{Preset: "southern"} }

func withoutGSO(s *Spec) { s.Scheduler.DisableGSO, s.Scheduler.GSOProtectionDeg = true, 0 }

// withoutLoad zeroes the hidden load term of the effective weights:
// the planted ones, else the study defaults.
func withoutLoad(s *Spec) {
	w, ok := s.PlantedWeights()
	if !ok {
		w = scheduler.DefaultWeights()
	}
	w.Load = 0
	s.setWeights(w)
}

// deterministic also removes the score noise and the battery term,
// which is as unobservable as load.
func deterministic(s *Spec) {
	withoutLoad(s)
	s.Scheduler.Weights.NoiseStd = 1e-9
	s.Scheduler.Weights.Charge = 0
}

// isNorth reports whether an azimuth lies in the northern half-sky.
func isNorth(az float64) bool { return az < 90 || az >= 270 }

// HemisphereSite is one site's directional statistics. NorthFrac must
// be read against AvailNorthFrac: at extreme latitudes a 53°-shell
// constellation is only visible equator-ward, so the availability
// baseline — not 50% — is the neutral point.
type HemisphereSite struct {
	Terminal       string
	LatDeg         float64
	NorthFrac      float64 // fraction of picks in the northern half-sky
	AvailNorthFrac float64 // fraction of available satellites there
	Slots          int
}

// NorthSkew is the pick skew relative to availability: positive means
// the scheduler prefers the northern sky beyond what geometry offers.
func (s HemisphereSite) NorthSkew() float64 { return s.NorthFrac - s.AvailNorthFrac }

// HemisphereResult compares directional preference across the equator.
type HemisphereResult struct {
	Northern []HemisphereSite // the paper's sites (>40N)
	Southern []HemisphereSite // Sydney, Punta Arenas, Quito
}

// HemisphereComparison runs two campaigns — the scenario's sites and
// the §8 southern sites — and measures where each site's picks point.
func (b *Built) HemisphereComparison(slots int) (*HemisphereResult, error) {
	if slots < 1 {
		return nil, fmt.Errorf("scenario: hemisphere comparison needs slots > 0, got %d", slots)
	}
	south, err := b.sibling(southernSites)
	if err != nil {
		return nil, fmt.Errorf("scenario: southern env: %w", err)
	}
	res := &HemisphereResult{}
	for _, pair := range []struct {
		env *experiments.Env
		out *[]HemisphereSite
	}{{b.Env, &res.Northern}, {south.Env, &res.Southern}} {
		chosenByTerm := map[string][]float64{}
		availByTerm := map[string][]float64{}
		if _, err := pair.env.StreamObservations(slots, func(o core.Observation) error {
			if c, ok := o.Chosen(); ok {
				chosenByTerm[o.Terminal] = append(chosenByTerm[o.Terminal], c.AzimuthDeg)
				for _, a := range o.Available {
					availByTerm[o.Terminal] = append(availByTerm[o.Terminal], a.AzimuthDeg)
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for _, t := range pair.env.Terminals {
			az := chosenByTerm[t.Name]
			if len(az) == 0 {
				continue
			}
			*pair.out = append(*pair.out, HemisphereSite{
				Terminal:       t.Name,
				LatDeg:         t.Location.LatDeg,
				NorthFrac:      stats.Proportion(az, isNorth),
				AvailNorthFrac: stats.Proportion(availByTerm[t.Name], isNorth),
				Slots:          len(az),
			})
		}
	}
	return res, nil
}

// LoadSensitivityResult is the §8 load-hypothesis test.
type LoadSensitivityResult struct {
	// WithHiddenLoad is holdout top-5 accuracy against the scenario's
	// scheduler (hidden load + score noise active).
	WithHiddenLoad float64
	// WithoutHiddenLoad is the same protocol against a scheduler whose
	// load term is zeroed (score noise remains).
	WithoutHiddenLoad float64
	// Deterministic removes every unobservable term (load, battery,
	// noise): the ceiling the model could reach if the scheduler
	// depended only on public features.
	Deterministic float64
	// Top-1 variants of the same three accuracies; determinism shows
	// up most strongly here.
	WithHiddenLoadTop1    float64
	WithoutHiddenLoadTop1 float64
	DeterministicTop1     float64
	Rows                  int
}

// LoadSensitivity trains the §6 model against schedulers with
// progressively fewer unobservable factors. The paper predicts the
// unobservables are what bound model accuracy; Deterministic should
// clearly exceed WithHiddenLoad.
func (b *Built) LoadSensitivity(slots int) (*LoadSensitivityResult, error) {
	if slots < 1 {
		return nil, fmt.Errorf("scenario: load sensitivity needs slots > 0, got %d", slots)
	}
	quiet, err := b.sibling(withoutLoad)
	if err != nil {
		return nil, fmt.Errorf("scenario: no-load env: %w", err)
	}
	det, err := b.sibling(deterministic)
	if err != nil {
		return nil, fmt.Errorf("scenario: deterministic env: %w", err)
	}
	ctx := b.Env.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	out := &LoadSensitivityResult{}
	for _, pair := range []struct {
		env  *experiments.Env
		acc  *float64
		top1 *float64
	}{
		{b.Env, &out.WithHiddenLoad, &out.WithHiddenLoadTop1},
		{quiet.Env, &out.WithoutHiddenLoad, &out.WithoutHiddenLoadTop1},
		{det.Env, &out.Deterministic, &out.DeterministicTop1},
	} {
		ds := core.NewDatasetBuilder()
		if _, err := pair.env.StreamObservations(slots, ds.Add); err != nil {
			return nil, err
		}
		d, err := ds.Finalize()
		if err != nil {
			return nil, err
		}
		mc := experiments.QuickModelConfig(pair.env.Seed + 1)
		mc.Workers = b.Env.Workers
		res, err := core.TrainModelCtx(ctx, d, mc)
		if err != nil {
			return nil, err
		}
		*pair.acc = res.ModelTopK[4]
		*pair.top1 = res.ModelTopK[0]
		out.Rows = len(d.X)
	}
	return out, nil
}

// GSOAblationResult compares the north preference with the exclusion
// zone on and off.
type GSOAblationResult struct {
	NorthFracWithGSO    float64
	NorthFracWithoutGSO float64
	// Slots is the length of each of the two campaigns.
	Slots int
}

// GSOAblation measures how much of the scheduler's north preference
// the exclusion zone explains (the paper's §5.1 rationale). The
// residual preference without the zone comes from the explicit north
// weight alone.
func (b *Built) GSOAblation(slots int) (*GSOAblationResult, error) {
	if slots < 1 {
		return nil, fmt.Errorf("scenario: GSO ablation needs slots > 0, got %d", slots)
	}
	noGSO, err := b.sibling(withoutGSO)
	if err != nil {
		return nil, fmt.Errorf("scenario: no-GSO env: %w", err)
	}
	out := &GSOAblationResult{Slots: slots}
	for _, pair := range []struct {
		env  *experiments.Env
		frac *float64
	}{{b.Env, &out.NorthFracWithGSO}, {noGSO.Env, &out.NorthFracWithoutGSO}} {
		var az []float64
		if _, err := pair.env.StreamObservations(slots, func(o core.Observation) error {
			if c, ok := o.Chosen(); ok {
				az = append(az, c.AzimuthDeg)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if len(az) == 0 {
			return nil, fmt.Errorf("scenario: no picks in GSO ablation")
		}
		*pair.frac = stats.Proportion(az, isNorth)
	}
	return out, nil
}
