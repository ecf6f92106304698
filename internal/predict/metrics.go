package predict

import "repro/internal/telemetry"

// metrics is the service's telemetry surface. Everything is nil-safe:
// with no registry the handles are nil and every update is a no-op, so
// the serve path never branches on "telemetry enabled".
type metrics struct {
	requests     *telemetry.Counter // RPC calls handled
	observed     *telemetry.Counter // records folded in (incl. unusable)
	scored       *telemetry.Counter // records predicted and ranked
	refits       *telemetry.Counter // models trained and published
	refitErrors  *telemetry.Counter // background refits that failed
	driftEvents  *telemetry.Counter // drift rising edges
	driftActive  *telemetry.Gauge   // 1 while the drift flag is raised
	modelVersion *telemetry.Gauge   // serving model's publication number
	windowRows   *telemetry.Gauge   // rows in the last refit's window
	recentTop1   *telemetry.FloatGauge
	recentTopK   *telemetry.FloatGauge
	refTop1      *telemetry.FloatGauge
	serve        *telemetry.Histogram // RPC predict/topk latency, seconds
}

func newMetrics(r *telemetry.Registry) *metrics {
	return &metrics{
		requests:     r.Counter("predict_requests_total", "RPC requests handled by predictd"),
		observed:     r.Counter("predict_observed_total", "slot records folded into the online model"),
		scored:       r.Counter("predict_scored_total", "slot records predicted and scored against the reveal"),
		refits:       r.Counter("predict_refits_total", "sliding-window refits published"),
		refitErrors:  r.Counter("predict_refit_errors_total", "background refits that failed"),
		driftEvents:  r.Counter("predict_drift_events_total", "drift-flag rising edges"),
		driftActive:  r.Gauge("predict_drift_active", "1 while windowed accuracy is degraded"),
		modelVersion: r.Gauge("predict_model_version", "publication number of the serving model"),
		windowRows:   r.Gauge("predict_window_rows", "rows in the most recent refit window"),
		recentTop1:   r.FloatGauge("predict_recent_top1", "short-window top-1 accuracy"),
		recentTopK:   r.FloatGauge("predict_recent_topk", "short-window top-k accuracy"),
		refTop1:      r.FloatGauge("predict_ref_top1", "reference-window top-1 accuracy"),
		serve:        r.Histogram("predict_serve_seconds", "predict/topk serve latency", nil),
	}
}
