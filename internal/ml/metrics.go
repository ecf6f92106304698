package ml

import (
	"time"

	"repro/internal/telemetry"
)

// Metrics is the learning engine's telemetry bundle: trees fitted and
// end-to-end forest fit duration.
type Metrics struct {
	TreesFitted *telemetry.Counter
	FitSeconds  *telemetry.Histogram
}

// NewMetrics registers the training metric families. Returns nil on a
// nil registry (telemetry disabled); all methods are nil-safe.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		TreesFitted: reg.Counter("ml_trees_fitted_total", "decision trees fitted"),
		FitSeconds:  reg.Histogram("ml_fit_seconds", "end-to-end forest fit duration", nil),
	}
}

// treeFitted records one finished tree. Safe for concurrent use
// (workers call it as trees complete).
func (m *Metrics) treeFitted() {
	if m != nil {
		m.TreesFitted.Inc()
	}
}

// observeFit records one whole-forest fit duration.
func (m *Metrics) observeFit(d time.Duration) {
	if m != nil {
		m.FitSeconds.Observe(d.Seconds())
	}
}
