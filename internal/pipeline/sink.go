package pipeline

import (
	"io"

	"repro/internal/core"
	"repro/internal/traceio"
)

// Feed adapts an incremental observation consumer — the §5 analysis
// accumulators, the §6 DatasetBuilder, any core.ObservationConsumer —
// into a sink. Run the pipeline, then call the consumer's Finalize.
// Gate it behind Where(ChosenOnly(), …) when the consumer should see
// only analyzable rows while sibling sinks see the full stream.
func Feed(c core.ObservationConsumer) Sink { return feedSink{c} }

type feedSink struct{ c core.ObservationConsumer }

func (s feedSink) Consume(rec *Record) error { return s.c.Add(rec.Observation) }
func (s feedSink) Flush() error              { return nil }

// SinkFunc adapts a per-record function into a sink with a no-op
// Flush.
type SinkFunc func(rec *Record) error

// Consume implements Sink.
func (f SinkFunc) Consume(rec *Record) error { return f(rec) }

// Flush implements Sink.
func (f SinkFunc) Flush() error { return nil }

// Where gates one sink behind a stage, leaving the rest of the
// pipeline untouched.
func Where(st Stage, s Sink) Sink { return whereSink{st, s} }

type whereSink struct {
	st Stage
	s  Sink
}

func (w whereSink) Consume(rec *Record) error {
	if !w.st(rec) {
		return nil
	}
	return w.s.Consume(rec)
}

func (w whereSink) Flush() error { return w.s.Flush() }

// Collect materializes the stream in memory — tests and small runs;
// long campaigns should stream into accumulators or writers instead.
type Collect struct {
	Records []core.SlotRecord
}

// Consume implements Sink.
func (c *Collect) Consume(rec *Record) error {
	c.Records = append(c.Records, *rec)
	return nil
}

// Flush implements Sink.
func (c *Collect) Flush() error { return nil }

// CollectObservations materializes only the observation half of the
// stream.
type CollectObservations struct {
	Obs []core.Observation
}

// Consume implements Sink.
func (c *CollectObservations) Consume(rec *Record) error {
	c.Obs = append(c.Obs, rec.Observation)
	return nil
}

// Flush implements Sink.
func (c *CollectObservations) Flush() error { return nil }

// WriteObservations streams the observation half to w as JSON Lines —
// the -save-obs format ObservationReplay and traceio.ReadObservations
// read back.
func WriteObservations(w io.Writer) Sink {
	return obsWriter{traceio.NewObservationEncoder(w)}
}

type obsWriter struct{ enc *traceio.ObservationEncoder }

func (s obsWriter) Consume(rec *Record) error { return s.enc.Encode(&rec.Observation) }
func (s obsWriter) Flush() error              { return s.enc.Flush() }

// CountSkips tallies the stream without retaining it: record and
// served-row totals plus a skip-reason histogram — the replay-side
// counterpart of core.CampaignStats.
type CountSkips struct {
	Total, Served int
	Reasons       map[string]int
}

// Consume implements Sink.
func (c *CountSkips) Consume(rec *Record) error {
	c.Total++
	if rec.ChosenIdx >= 0 {
		c.Served++
	}
	if rec.SkipReason != "" {
		if c.Reasons == nil {
			c.Reasons = map[string]int{}
		}
		c.Reasons[rec.SkipReason]++
	}
	return nil
}

// Flush implements Sink.
func (c *CountSkips) Flush() error { return nil }
