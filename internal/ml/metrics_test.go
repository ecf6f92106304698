package ml

import (
	"context"
	"testing"

	"repro/internal/telemetry"
)

// TestForestMetrics checks the training counters: every tree counted
// once and the fit duration observed — identically at any worker
// count.
func TestForestMetrics(t *testing.T) {
	d := gaussDataset(200, 9)
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		cfg := ForestConfig{NumTrees: 12, Seed: 5, Workers: workers, Metrics: NewMetrics(reg)}
		if _, err := FitForestCtx(context.Background(), d, cfg); err != nil {
			t.Fatal(err)
		}
		s := reg.Snapshot()
		if got := s.Counters["ml_trees_fitted_total"]; got != 12 {
			t.Errorf("workers=%d: trees fitted = %d, want 12", workers, got)
		}
		if h := s.Histograms["ml_fit_seconds"]; h.Count != 1 {
			t.Errorf("workers=%d: fit histogram count = %d, want 1", workers, h.Count)
		}
	}
}

// TestForestMetricsNil pins the disabled path.
func TestForestMetricsNil(t *testing.T) {
	if NewMetrics(telemetry.Nop) != nil {
		t.Fatal("NewMetrics(Nop) must return nil")
	}
	d := gaussDataset(80, 3)
	if _, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 3, Seed: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}
