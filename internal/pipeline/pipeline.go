// Package pipeline composes the reproduction's data path as one
// source → stage → sink streaming architecture. A Source pushes
// SlotRecords in deterministic (slot, terminal) order — a simulated
// campaign, a JSONL observation replay, or a live dish capture —
// stages filter records in flight, and sinks consume them
// incrementally: the §5 analysis accumulators, the §6 dataset builder,
// the online scorer, JSONL trace writers, in-memory collectors.
//
// Stages and sinks run inside the source's emit callback, on whatever
// goroutine the source emits from; Run adds no goroutine and no
// buffer. Emit returns only once every sink has taken the record, so a
// slow sink backpressures the source directly, and the campaign
// engine's one slot of records is the only buffering on the path.
// Every shipped source and sink holds O(1) state in the record count,
// so a campaign millions of slots long runs, persists, and re-analyzes
// in constant memory.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// Record is the unit flowing through a pipeline: one slot × terminal
// outcome — the observation plus whatever ground-truth and
// identification metadata the source has.
type Record = core.SlotRecord

// Source produces an ordered record stream. Implementations push each
// record to emit, one call at a time, and stop when emit errors or
// ctx is cancelled; records must arrive in deterministic order (for
// campaigns, the serial (slot, terminal) sequence regardless of worker
// count).
type Source interface {
	Stream(ctx context.Context, emit func(Record) error) error
}

// Stage is a filter: it reports whether a record passes on to the
// sinks.
type Stage func(rec *Record) bool

// Sink consumes the staged stream. The pointed-to record is reused
// between calls, so implementations must copy the struct if they
// retain it (the slices inside belong to the record and are safe to
// keep). Flush runs once after the source is exhausted and never after
// an error.
type Sink interface {
	Consume(rec *Record) error
	Flush() error
}

// Pipeline wires one source through an ordered stage list into one or
// more sinks. Zero value is not usable; populate Source and Sinks.
type Pipeline struct {
	Source Source
	Stages []Stage
	Sinks  []Sink
	// Metrics, when non-nil, counts and times the record flow. Nil (the
	// default) keeps Run on its untimed path — no clock reads per
	// record.
	Metrics *Metrics
}

// Run drives the pipeline until the source is exhausted, a sink fails,
// or ctx is cancelled. Each emitted record runs through the stages and
// then the sinks, in their listed order, before emit returns. After
// the first sink error emit returns that error again without running
// anything, and Run returns it without flushing.
func (p *Pipeline) Run(ctx context.Context) error {
	if p.Source == nil {
		return fmt.Errorf("pipeline: nil source")
	}
	if len(p.Sinks) == 0 {
		return fmt.Errorf("pipeline: no sinks")
	}
	// cur is the one record every stage and sink call points at (see
	// Sink); stopErr is the first sink error, returned by every later
	// emit.
	var cur Record
	var stopErr error
	err := p.Source.Stream(ctx, func(rec Record) error {
		if stopErr == nil {
			cur = rec
			stopErr = p.push(&cur)
		}
		return stopErr
	})
	if stopErr != nil {
		return stopErr
	}
	if err != nil {
		return err
	}
	for _, s := range p.Sinks {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// push runs one record through the stages and, if it passes, the
// sinks.
func (p *Pipeline) push(rec *Record) error {
	m := p.Metrics
	m.in()
	keep := true
	var stageStart time.Time
	if m != nil && len(p.Stages) > 0 {
		stageStart = time.Now()
	}
	for _, stage := range p.Stages {
		if keep = stage(rec); !keep {
			break
		}
	}
	if m != nil && len(p.Stages) > 0 {
		m.StageSeconds.Observe(time.Since(stageStart).Seconds())
	}
	if !keep {
		m.dropped()
		return nil
	}
	m.out()
	var sinkStart time.Time
	if m != nil {
		sinkStart = time.Now()
	}
	for _, s := range p.Sinks {
		if err := s.Consume(rec); err != nil {
			return err
		}
	}
	if m != nil {
		m.SinkSeconds.Observe(time.Since(sinkStart).Seconds())
	}
	return nil
}
