package pipeline

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/traceio"
)

// Campaign streams a simulated measurement campaign straight from the
// core engine (core.RunCampaignStream): records flow downstream as the
// workers produce them and never materialize, at any worker count, in
// exact serial (slot, terminal) order.
type Campaign struct {
	Config core.CampaignConfig
	// Stats holds the O(1)-memory campaign summary — dropped records,
	// the skip-reason histogram, identification counters — after a
	// successful run.
	Stats *core.CampaignStats
}

// Stream implements Source.
func (c *Campaign) Stream(ctx context.Context, emit func(Record) error) error {
	stats, err := core.RunCampaignStream(ctx, c.Config, core.EmitFunc(emit))
	if err != nil {
		return err
	}
	c.Stats = stats
	return nil
}

// ObservationReplay streams a JSONL observation trace (the -save-obs /
// traceio.ObservationEncoder format), wrapping each observation in a
// bare record.
type ObservationReplay struct{ R io.Reader }

// Stream implements Source.
func (r ObservationReplay) Stream(ctx context.Context, emit func(Record) error) error {
	dec := traceio.NewObservationDecoder(r.R)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		o, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := emit(Record{Observation: o}); err != nil {
			return err
		}
	}
}
