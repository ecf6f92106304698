package dtw

import "repro/internal/telemetry"

// Metrics is the matcher's telemetry bundle: one counter per
// MatcherStats field, pre-resolved at wiring time. Matchers are
// single-goroutine engines, so they accumulate into their local Stats
// on the hot path and the owner folds the totals in with AddStats —
// typically once per worker at exit — keeping the identification loop
// free of atomics.
type Metrics struct {
	Candidates      *telemetry.Counter
	EmptyTracks     *telemetry.Counter
	PresamplePruned *telemetry.Counter
	KimPruned       *telemetry.Counter
	EnvelopePruned  *telemetry.Counter
	PassesRun       *telemetry.Counter
	PassesAbandoned *telemetry.Counter
	PassesSkipped   *telemetry.Counter
	Cells           *telemetry.Counter
}

// NewMetrics registers the matcher counters. Returns nil on a nil
// registry (telemetry disabled); AddStats on a nil bundle is a no-op.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Candidates:      reg.Counter("dtw_candidates_total", "candidates entering the matcher's scan, built or not"),
		EmptyTracks:     reg.Counter("dtw_empty_tracks_total", "candidates with no points (distance +Inf, no DTW)"),
		PresamplePruned: reg.Counter("dtw_presample_pruned_total", "candidates dropped on their pre-bound before their track was built"),
		KimPruned:       reg.Counter("dtw_kim_pruned_total", "candidates dropped by the O(1) endpoint bound alone"),
		EnvelopePruned:  reg.Counter("dtw_envelope_pruned_total", "candidates whose drop needed the envelope bound"),
		PassesRun:       reg.Counter("dtw_passes_run_total", "DTW passes started (up to two per candidate)"),
		PassesAbandoned: reg.Counter("dtw_passes_abandoned_total", "started passes cut short by the early-abandon row check"),
		PassesSkipped:   reg.Counter("dtw_passes_skipped_total", "directional passes skipped by the per-direction endpoint bound"),
		Cells:           reg.Counter("dtw_cells_total", "DTW cost-matrix cells evaluated"),
	}
}

// AddStats folds one matcher's lifetime counters into the registry.
// Safe for concurrent use (counters are atomic) and on a nil bundle.
func (m *Metrics) AddStats(s MatcherStats) {
	if m == nil {
		return
	}
	m.Candidates.Add(int64(s.Candidates))
	m.EmptyTracks.Add(int64(s.EmptyTracks))
	m.PresamplePruned.Add(int64(s.PresamplePruned))
	m.KimPruned.Add(int64(s.KimPruned))
	m.EnvelopePruned.Add(int64(s.EnvelopePruned))
	m.PassesRun.Add(int64(s.PassesRun))
	m.PassesAbandoned.Add(int64(s.PassesAbandoned))
	m.PassesSkipped.Add(int64(s.PassesSkipped))
	m.Cells.Add(s.Cells)
}
