package pipeline

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestPipelineMetricsFlow checks the in/out/dropped accounting against
// a known stream with a dropping stage.
func TestPipelineMetricsFlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := sourceFunc(func(ctx context.Context, emit func(Record) error) error {
		for i := 0; i < 10; i++ {
			rec := Record{}
			if i%2 == 0 {
				rec.ChosenIdx = 0 // kept by ChosenOnly
			} else {
				rec.ChosenIdx = -1
			}
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	})
	var seen int
	p := &Pipeline{
		Source: src,
		Stages: []Stage{ChosenOnly()},
		Sinks: []Sink{SinkFunc(func(rec *Record) error {
			seen++
			return nil
		})},
		Metrics: NewMetrics(reg),
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("sink saw %d records, want 5", seen)
	}
	s := reg.Snapshot()
	if got := s.Counter("pipeline_records_in_total"); got != 10 {
		t.Errorf("in = %d, want 10", got)
	}
	if got := s.Counter("pipeline_records_out_total"); got != 5 {
		t.Errorf("out = %d, want 5", got)
	}
	if got := s.Counter("pipeline_records_dropped_total"); got != 5 {
		t.Errorf("dropped = %d, want 5", got)
	}
	if h := s.Histograms["pipeline_stage_seconds"]; h.Count != 10 {
		t.Errorf("stage histogram count = %d, want 10", h.Count)
	}
	if h := s.Histograms["pipeline_sink_seconds"]; h.Count != 5 {
		t.Errorf("sink histogram count = %d, want 5", h.Count)
	}
}

// TestPipelineMetricsNil pins the disabled path: NewMetrics(Nop) is
// nil and Run works without it.
func TestPipelineMetricsNil(t *testing.T) {
	if NewMetrics(telemetry.Nop) != nil {
		t.Fatal("NewMetrics(Nop) must return nil")
	}
	src := sourceFunc(func(ctx context.Context, emit func(Record) error) error {
		return emit(Record{Observation: core.Observation{Terminal: "x"}})
	})
	n := 0
	p := &Pipeline{
		Source: src,
		Sinks:  []Sink{SinkFunc(func(*Record) error { n++; return nil })},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("sink saw %d records, want 1", n)
	}
}
