package scenario

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/predict"
)

// TestRunDrift walks the full adversarial arc against a synchronous
// in-process predict service: stationary accuracy in act one, a
// visible collapse and a bounded-latency drift flag in act two,
// recovery by forced refit in act three — plus the offline §6
// cross-check on the stationary phase.
func TestRunDrift(t *testing.T) {
	svc, err := predict.NewService(predict.Config{
		Window: 512, RefitEvery: 128, MinFit: 256,
		Trees: 20, MaxDepth: 10, Seed: 7, Workers: 4,
		TopK: 5, AccWindow: 64, RefWindow: 256, DriftDrop: 0.15,
		Synchronous: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Starlink("small", 3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Campaign.Workers = 4
	res, err := RunDrift(context.Background(), DriftConfig{
		Spec: spec, Slots: 600,
		Scorer:  svc,
		Offline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("drift result: %+v", res)

	// Act one: the model learned the stationary policy.
	if res.PreTop1 < 0.3 {
		t.Errorf("pre-flip recent top-1 = %v, model never learned the default policy", res.PreTop1)
	}
	if res.Refits < 2 {
		t.Errorf("refits = %d, want >= 2 over 600 slots", res.Refits)
	}

	// Act two: the flip is visible and detected within bounded slots.
	if drop := res.PreTop1 - res.MinPostTop1; drop < 0.15 {
		t.Errorf("windowed top-1 dropped only %v after the weight flip (pre %v, floor %v)",
			drop, res.PreTop1, res.MinPostTop1)
	}
	if res.DetectSlots < 0 {
		t.Fatal("drift flag never fired after the weight flip")
	}
	if res.DetectSlots > 150 {
		t.Errorf("drift detected %d slots after the flip, want bounded by ~2 reference windows (150)", res.DetectSlots)
	}
	if res.DriftEvents < 1 {
		t.Errorf("drift events = %d, want >= 1", res.DriftEvents)
	}

	// Act three: retraining on the new regime recovers accuracy.
	if res.FinalTop1 <= res.MinPostTop1 {
		t.Errorf("final top-1 %v never recovered above the post-flip floor %v", res.FinalTop1, res.MinPostTop1)
	}
	if res.ClearSlots < 0 {
		t.Error("drift flag never cleared after retraining")
	}

	// Offline §6 cross-check: the online stationary accuracy should sit
	// near the batch-protocol holdout figure, and the batch model still
	// beats the baseline.
	if res.OfflineTop1 <= res.OfflineBaselineTop1 {
		t.Errorf("offline model top-1 %v <= baseline %v", res.OfflineTop1, res.OfflineBaselineTop1)
	}
	if diff := math.Abs(res.OfflineTop1 - res.PreTop1); diff > 0.2 {
		t.Errorf("online stationary top-1 %v vs offline %v: gap %v exceeds tolerance 0.2",
			res.PreTop1, res.OfflineTop1, diff)
	}
}

// TestRunDriftValidation covers the config gates.
func TestRunDriftValidation(t *testing.T) {
	if _, err := RunDrift(context.Background(), DriftConfig{}); err == nil {
		t.Error("nil scorer accepted")
	}
	svc, err := predict.NewService(predict.Config{Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDrift(context.Background(), DriftConfig{Scorer: svc, Slots: 1}); err == nil {
		t.Error("flip at campaign start accepted")
	}
}

// fakeScorer replays a scripted update and records what it was fed.
type fakeScorer struct {
	up   predict.ScoreUpdate
	err  error
	seen []core.SlotRecord
}

func (f *fakeScorer) ObserveRecord(rec *core.SlotRecord) (predict.ScoreUpdate, error) {
	f.seen = append(f.seen, *rec)
	return f.up, f.err
}

// TestDriftFeedsScorer: both phases hand the scorer every record with a
// chosen satellite, in stream order, and the scorer's updates reach the
// result.
func TestDriftFeedsScorer(t *testing.T) {
	spec, err := Starlink("small", 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := &fakeScorer{up: predict.ScoreUpdate{Scored: true, Rank: 2, RecentTop1: 0.5, Refits: 3}}
	res, err := RunDrift(context.Background(), DriftConfig{Spec: spec, Slots: 20, Scorer: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreStats.Dropped() == 0 || res.PostStats.Dropped() == 0 {
		t.Fatalf("both phases must drop a record for the check to bite: %d, %d",
			res.PreStats.Dropped(), res.PostStats.Dropped())
	}
	served := res.PreStats.Served + res.PostStats.Served
	if served == 0 || len(sc.seen) != served || res.Scored != served {
		t.Fatalf("scorer saw %d records, result scored %d, campaigns served %d", len(sc.seen), res.Scored, served)
	}
	for i, rec := range sc.seen {
		if rec.ChosenIdx < 0 {
			t.Fatalf("record %d has no chosen satellite", i)
		}
		if i > 0 && rec.SlotStart.Before(sc.seen[i-1].SlotStart) {
			t.Fatalf("record %d at %v arrives after a later slot", i, rec.SlotStart)
		}
	}
	if res.PreTop1 != 0.5 || res.FinalTop1 != 0.5 || res.MinPostTop1 != 0.5 || res.Refits != 3 {
		t.Errorf("scripted update not folded in: %+v", res)
	}
}

// TestDriftScorerErrorStops: a scorer error aborts the campaign at the
// first record and surfaces from RunDrift.
func TestDriftScorerErrorStops(t *testing.T) {
	spec, err := Starlink("small", 3)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("model exploded")
	sc := &fakeScorer{err: boom}
	if _, err := RunDrift(context.Background(), DriftConfig{Spec: spec, Slots: 8, Scorer: sc}); !errors.Is(err, boom) {
		t.Errorf("RunDrift = %v, want the scorer's error", err)
	}
	if len(sc.seen) != 1 {
		t.Errorf("scorer called %d times after its error, want 1", len(sc.seen))
	}
}

// cancelScorer is a fakeScorer that cancels the run's context when it
// is handed its nth record.
type cancelScorer struct {
	fakeScorer
	n      int
	cancel context.CancelFunc
}

func (c *cancelScorer) ObserveRecord(rec *core.SlotRecord) (predict.ScoreUpdate, error) {
	up, err := c.fakeScorer.ObserveRecord(rec)
	if len(c.seen) == c.n {
		c.cancel()
	}
	return up, err
}

// TestRunDriftHonoursCancel: cancelling the context mid-campaign stops
// RunDrift with context.Canceled well before the campaign's last
// record, the way Ctrl-C stops `repro drift`.
func TestRunDriftHonoursCancel(t *testing.T) {
	spec, err := Starlink("small", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DriftConfig{Spec: spec, Slots: 20}
	full := &fakeScorer{}
	cfg.Scorer = full
	if _, err := RunDrift(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := &cancelScorer{n: 5, cancel: cancel}
	cfg.Scorer = sc
	_, err = RunDrift(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunDrift after cancel = %v, want context.Canceled", err)
	}
	if len(sc.seen) >= len(full.seen) {
		t.Errorf("scorer saw %d of the campaign's %d records: cancel did not stop it", len(sc.seen), len(full.seen))
	}
}
