package pipeline

import "repro/internal/telemetry"

// Metrics is the pipeline's telemetry bundle: record flow counters
// and stage/sink latency histograms. A nil bundle (the default) keeps
// Run on its untimed path.
type Metrics struct {
	// In counts records the source emitted; Out counts records that
	// cleared the stages and reached the sinks; Dropped counts records a
	// stage filtered out.
	In      *telemetry.Counter
	Out     *telemetry.Counter
	Dropped *telemetry.Counter
	// StageSeconds and SinkSeconds observe the per-record latency of the
	// whole stage chain and the whole sink chain respectively.
	StageSeconds *telemetry.Histogram
	SinkSeconds  *telemetry.Histogram
}

// NewMetrics registers the pipeline metric families. Returns nil on a
// nil registry (telemetry disabled).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		In:           reg.Counter("pipeline_records_in_total", "records received from the source"),
		Out:          reg.Counter("pipeline_records_out_total", "records that cleared the stages and reached the sinks"),
		Dropped:      reg.Counter("pipeline_records_dropped_total", "records filtered out by a stage"),
		StageSeconds: reg.Histogram("pipeline_stage_seconds", "per-record latency of the stage chain", nil),
		SinkSeconds:  reg.Histogram("pipeline_sink_seconds", "per-record latency of the sink chain", nil),
	}
}

// in/out/dropped are push's nil-safe record-flow marks.
func (m *Metrics) in() {
	if m != nil {
		m.In.Inc()
	}
}

func (m *Metrics) out() {
	if m != nil {
		m.Out.Inc()
	}
}

func (m *Metrics) dropped() {
	if m != nil {
		m.Dropped.Inc()
	}
}
