package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/predict"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
)

// The drift experiment: run a campaign under the default scheduler
// weights long enough for an online model to learn the policy, then
// flip the weights mid-campaign — the operator "pushes a scheduler
// update" — and keep streaming. A healthy online-inference loop shows
// three acts: windowed accuracy collapses right after the flip, the
// drift detector raises its flag within a bounded number of slots, and
// the forced sliding-window refit re-learns the new policy until the
// flag clears. It is the online counterpart of the paper's caveat that
// the §6 model encodes one scheduling policy, not physics.

// FlippedWeights is the adversarial mid-campaign scheduler update:
// elevation preference and recency swap magnitudes and the sunlit bias
// collapses, so the policy the model learned inverts while every
// candidate set stays physically identical.
func FlippedWeights() scheduler.Weights {
	w := scheduler.DefaultWeights()
	w.Elevation, w.Recency = w.Recency, w.Elevation
	w.Sunlit = 0.2
	w.Load = 2.5
	return w
}

// DriftConfig shapes a RunDrift campaign.
type DriftConfig struct {
	// Spec describes the environment both phases share; the post-flip
	// phase builds a copy of it with only the weights replaced. Nil
	// uses Starlink("small", 1).
	Spec *Spec
	// Slots is the total campaign length (default 600). The scheduler
	// weights change to FlippedWeights at slot Slots/2.
	Slots int
	// Scorer is the online service under test (required). Use a
	// Synchronous predict.Service for deterministic output, or a
	// predict.RemoteScorer to drive a live predictd.
	Scorer OnlineScorer
	// Offline also trains the §6 offline model on the pre-flip
	// observations (cfg from experiments.QuickModelConfig) so the
	// stationary online accuracy can be compared against Figure 8.
	Offline bool
	// Telemetry is passed to both phases' environments. Their worker
	// counts are the spec's.
	Telemetry *telemetry.Registry
}

// DriftResult summarizes the three acts.
type DriftResult struct {
	Slots, FlipAt int
	// PreTop1/PreTopK are the scorer's windowed accuracies at the flip.
	PreTop1, PreTopK float64
	// MinPostTop1 is the windowed top-1 floor after the flip — how far
	// accuracy fell before retraining caught up.
	MinPostTop1 float64
	// FinalTop1 is the windowed top-1 at campaign end.
	FinalTop1 float64
	// DetectSlots is how many slots after the flip the drift flag rose
	// (-1: never); ClearSlots is when it cleared again (-1: never).
	DetectSlots, ClearSlots int
	// DriftEvents and Refits are the scorer's totals at campaign end.
	DriftEvents, Refits int
	// Scored counts records the scorer actually ranked.
	Scored int
	// PreStats/PostStats are the two phases' campaign summaries.
	PreStats, PostStats *core.CampaignStats
	// OfflineTop1/OfflineBaselineTop1 compare against the §6 batch
	// protocol on the pre-flip stream (zero when Offline is false).
	OfflineTop1, OfflineBaselineTop1 float64
}

// OnlineScorer folds one revealed slot into an online model: predict
// before looking at the answer, score the prediction, learn from the
// row. Implementations decide their own refit cadence;
// predict.Service runs in process and predict.RemoteScorer drives a
// predictd over dishrpc, both through the same Service.ObserveRecord.
type OnlineScorer interface {
	ObserveRecord(rec *core.SlotRecord) (predict.ScoreUpdate, error)
}

// driftTracker feeds records to the scorer and folds its updates into
// the result, counting slots by SlotStart transitions (each slot
// yields one record per terminal).
type driftTracker struct {
	res      *DriftResult
	sc       OnlineScorer
	lastSlot time.Time
	slotIdx  int // 0-based within the current phase
	post     bool
	sawDrift bool
}

func (d *driftTracker) observe(rec *core.SlotRecord) error {
	up, err := d.sc.ObserveRecord(rec)
	if err != nil {
		return err
	}
	if !rec.SlotStart.Equal(d.lastSlot) {
		if !d.lastSlot.IsZero() {
			d.slotIdx++
		}
		d.lastSlot = rec.SlotStart
	}
	r := d.res
	if up.Scored {
		r.Scored++
	}
	r.DriftEvents = up.DriftEvents
	r.Refits = up.Refits
	if !d.post {
		r.PreTop1, r.PreTopK = up.RecentTop1, up.RecentTopK
		return nil
	}
	if up.Scored && up.RecentTop1 < r.MinPostTop1 {
		r.MinPostTop1 = up.RecentTop1
	}
	if up.Drift && !d.sawDrift {
		d.sawDrift = true
		r.DetectSlots = d.slotIdx
	}
	if d.sawDrift && !up.Drift && r.ClearSlots < 0 {
		r.ClearSlots = d.slotIdx
	}
	r.FinalTop1 = up.RecentTop1
	return nil
}

// RunDrift executes the two-phase campaign against cfg.Scorer. Both
// phases share one constellation (same spec), and phase two
// starts exactly Slots/2 periods after phase one's epoch, so the stream
// the scorer sees is one continuous campaign whose only discontinuity
// is the scheduler's weights. (The post-flip scheduler restarts its
// load/recency bookkeeping — the real analogue is a scheduler redeploy,
// which also resets in-memory state.) Cancelling ctx stops either
// phase, and the offline cross-check, with ctx's error.
func RunDrift(ctx context.Context, cfg DriftConfig) (*DriftResult, error) {
	if cfg.Scorer == nil {
		return nil, fmt.Errorf("scenario: drift needs an online scorer")
	}
	if cfg.Spec == nil {
		var err error
		if cfg.Spec, err = Starlink("small", 1); err != nil {
			return nil, err
		}
	}
	if cfg.Slots == 0 {
		cfg.Slots = 600
	}
	flipAt := cfg.Slots / 2
	if flipAt <= 0 {
		return nil, fmt.Errorf("scenario: drift campaign of %d slots has no slot to flip at", cfg.Slots)
	}
	flipped, err := cfg.Spec.clone()
	if err != nil {
		return nil, err
	}
	flipped.setWeights(FlippedWeights())
	opt := BuildOptions{Telemetry: cfg.Telemetry}
	pre, err := cfg.Spec.Build(opt)
	if err != nil {
		return nil, err
	}
	post, err := flipped.Build(opt)
	if err != nil {
		return nil, err
	}
	pre.Env.Ctx, post.Env.Ctx = ctx, ctx

	res := &DriftResult{
		Slots: cfg.Slots, FlipAt: flipAt,
		MinPostTop1: 1, DetectSlots: -1, ClearSlots: -1,
	}
	tr := &driftTracker{res: res, sc: cfg.Scorer}

	// Both phases feed the scorer every record with a chosen
	// satellite; phase one also builds the offline cross-check's §6
	// dataset from them.
	offline := core.NewDatasetBuilder()
	emit := func(rec core.SlotRecord) error {
		if rec.ChosenIdx < 0 {
			return nil
		}
		if cfg.Offline && !tr.post {
			if err := offline.Add(rec.Observation); err != nil {
				return err
			}
		}
		return tr.observe(&rec)
	}

	// Phase one: learn the default policy.
	res.PreStats, err = core.RunCampaignStream(ctx, pre.Env.CampaignConfig(flipAt, true), emit)
	if err != nil {
		return nil, fmt.Errorf("scenario: drift pre-flip phase: %w", err)
	}

	// Phase two: same constellation, same clock, new weights. Slot
	// counting restarts at the flip boundary.
	tr.post = true
	tr.lastSlot = time.Time{}
	tr.slotIdx = 0
	postCfg := post.Env.CampaignConfig(cfg.Slots-flipAt, true)
	postCfg.Start = pre.Env.Start().Add(time.Duration(flipAt) * scheduler.Period)
	res.PostStats, err = core.RunCampaignStream(ctx, postCfg, emit)
	if err != nil {
		return nil, fmt.Errorf("scenario: drift post-flip phase: %w", err)
	}

	if cfg.Offline {
		d, err := offline.Finalize()
		if err != nil {
			return nil, fmt.Errorf("scenario: drift offline comparison: %w", err)
		}
		mc := experiments.QuickModelConfig(cfg.Spec.Seed)
		mc.Workers, mc.Metrics = pre.Env.Workers, ml.NewMetrics(pre.Env.Telemetry)
		mres, err := core.TrainModelCtx(ctx, d, mc)
		if err != nil {
			return nil, fmt.Errorf("scenario: drift offline comparison: %w", err)
		}
		res.OfflineTop1 = mres.ModelTopK[0]
		res.OfflineBaselineTop1 = mres.BaselineTopK[0]
	}
	return res, nil
}
