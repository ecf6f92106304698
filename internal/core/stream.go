package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
)

// EmitFunc receives one campaign record. Implementations must not
// retain rec's slices past the call: the engine writes the terminal's
// next available set into the same array. Keep
// rec.Observation.Clone() instead.
// Returning an error aborts the campaign and surfaces the error from
// RunCampaignStream.
type EmitFunc func(rec SlotRecord) error

// CampaignStats summarizes a streamed campaign without retaining any
// records, so arbitrarily long campaigns report in O(1) memory.
type CampaignStats struct {
	Slots, Terminals int
	// Records is the number of records emitted (slots × terminals on a
	// complete run).
	Records int
	// Served counts records with a valid chosen satellite — the rows
	// the §5/§6 analyses consume.
	Served int
	// Identification validation counters (non-oracle runs).
	Attempted, Correct, Failed int
	// Skips histograms every non-empty SkipReason.
	Skips map[string]int
	// PropagationSkips counts satellites dropped from snapshots by
	// propagation failures, summed over slots (a persistently failing
	// satellite counts once per slot). Zero on healthy runs; non-zero
	// means available sets were silently smaller than the constellation.
	PropagationSkips int
}

// Accuracy returns the identification accuracy over attempted slots.
func (s *CampaignStats) Accuracy() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Attempted)
}

// Dropped counts emitted records without a usable chosen satellite.
func (s *CampaignStats) Dropped() int { return s.Records - s.Served }

// observe folds one emitted record into the stats. Called on the
// engine goroutine, in emission order.
func (s *CampaignStats) observe(rec *SlotRecord) {
	s.Records++
	if rec.ChosenIdx >= 0 {
		s.Served++
	}
	if rec.SkipReason != "" {
		if s.Skips == nil {
			s.Skips = map[string]int{}
		}
		s.Skips[rec.SkipReason]++
	}
}

// RunCampaignStream executes the campaign, pushing each SlotRecord to
// emit in deterministic (slot, terminal) order without retaining
// records. It is the one campaign entry point.
//
// The engine is slot-synchronous. The scheduler is one stateful global
// controller (hidden load walk, score-noise RNG), so Allocate runs on
// the calling goroutine once per slot, in slot order. The per-terminal
// work of a slot (available set, dish painting, identification) is
// independent across terminals and runs over cfg.Workers: terminal i
// of the shard goes to worker i mod Workers, which owns that
// terminal's dish map, DTW matcher and scratch. While the pool runs
// slot s, the calling goroutine prepares slot s+1 (snapshot and
// Allocate); it then waits for the pool, releases slot s's snapshot
// and emits slot s's records in terminal order. With one worker the
// pool runs inline and the campaign uses one goroutine. Live memory is
// one slot's records plus two pinned snapshots, however many slots the
// campaign has: each terminal's record keeps its Available array from
// slot to slot, and a warm identified step allocates nothing.
//
// On ctx cancellation or an emit error the partial stream stops,
// already-emitted records stand, and the error is returned with nil
// stats.
func RunCampaignStream(ctx context.Context, cfg CampaignConfig, emit EmitFunc) (*CampaignStats, error) {
	terms, lo, hi, err := prepareCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	if cfg.Metrics != nil {
		t0 = time.Now()
	}
	shard := terms[lo:hi]
	workers := cfg.resolveWorkers(len(shard))
	// Dish maps exist only for the identification path; oracle-mode
	// fleets (100k terminals) must not pay ~1.9 KB per terminal for maps
	// nothing reads. A shard owns maps only for its own range — the
	// scheduler's allocations for other terminals never touch a dish.
	maps := make([]*obstruction.Map, len(shard))
	if !cfg.Oracle {
		for i := range maps {
			maps[i] = obstruction.New()
		}
	}
	pool := make([]campaignWorker, workers)
	defer func() {
		for w := range pool {
			cfg.Metrics.flushMatcher(pool[w].matcher.Stats)
		}
	}()
	recs := make([]SlotRecord, len(shard))
	stats := &CampaignStats{Slots: cfg.Slots, Terminals: len(shard)}

	start := scheduler.EpochStart(cfg.Start)
	// Two allocation buffers, one for the slot the pool runs and one
	// for the lookahead slot: slot s writes into allocBufs[s%2], which
	// slot s-2 was done with before slot s is prepared.
	var allocBufs [2][]scheduler.Allocation
	prepare := func(slot int) preparedSlot {
		p := preparedSlot{start: start.Add(time.Duration(slot) * scheduler.Period)}
		p.snap = cfg.Snapshots.Acquire(cfg.Identifier.cons, p.start)
		stats.PropagationSkips += p.snap.Skipped()
		buf := &allocBufs[slot%2]
		*buf = cfg.Scheduler.AppendAllocate((*buf)[:0], p.start)
		p.allocs = *buf
		return p
	}
	run := func(w int, p preparedSlot) {
		wk := &pool[w]
		for i := w; i < len(shard); i += workers {
			t := shard[i]
			wk.runSlotTerminal(&cfg, t, maps[i], &recs[i], p.start, p.snap, allocFor(p.allocs, lo+i, t.Name))
		}
	}

	// An early return leaves the lookahead slot's snapshot in cur; the
	// deferred release hands it back to the cache.
	var cur preparedSlot
	defer func() { cur.snap.Release() }()
	var wg sync.WaitGroup
	for slot := 0; slot < cfg.Slots; slot++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if slot == 0 {
			cur = prepare(0)
		}
		if !cfg.Oracle && cfg.ResetEvery > 0 && slot%cfg.ResetEvery == 0 && slot > 0 {
			for _, m := range maps {
				m.Reset()
			}
		}

		cfg.Metrics.slotDispatched()
		if workers == 1 {
			run(0, cur)
		} else {
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int, p preparedSlot) {
					defer wg.Done()
					run(w, p)
				}(w, cur)
			}
		}
		var next preparedSlot
		if slot+1 < cfg.Slots {
			next = prepare(slot + 1)
		}
		wg.Wait()
		cur.snap.Release()
		cur = next

		if slot < cfg.EmitFromSlot {
			continue // replayed slot: state advanced, emission suppressed
		}
		for i := range recs {
			stats.observe(&recs[i])
			cfg.Metrics.observeRecord(&recs[i])
			if err := emit(recs[i]); err != nil {
				return nil, err
			}
		}
	}
	for _, wk := range pool {
		stats.Attempted += wk.attempted
		stats.Correct += wk.correct
		stats.Failed += wk.failed
	}
	if cfg.Metrics != nil {
		cfg.Metrics.campaignDone(cfg.Slots, time.Since(t0))
	}
	return stats, nil
}

// preparedSlot is one slot's inputs, prepared on the engine goroutine
// one slot ahead of the pool: its start, its pinned snapshot and the
// scheduler's allocations.
type preparedSlot struct {
	start  time.Time
	snap   *constellation.SharedSnapshot
	allocs []scheduler.Allocation
}

// campaignWorker is one pool member's private state. Worker w runs the
// shard's terminals w, w+W, w+2W, … every slot, so its matcher, scratch
// and tallies are only ever touched by one goroutine at a time. prev
// holds a dish map as it was before the slot's paint and diff its XOR
// with the painted map.
type campaignWorker struct {
	matcher                    dtw.Matcher
	scratch                    slotScratch
	prev, diff                 obstruction.Map
	attempted, correct, failed int
}

// prepareCampaign validates the config, applies defaults, and resolves
// the shard to the terminal index range [lo, hi).
func prepareCampaign(cfg *CampaignConfig) (terms []scheduler.Terminal, lo, hi int, err error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, 0, err
	}
	if cfg.ResetEvery == 0 {
		cfg.ResetEvery = 40
	}
	if cfg.Snapshots == nil {
		cfg.Snapshots = constellation.NewSnapshotCache(0, nil)
	}
	terms = cfg.Scheduler.Terminals()
	for _, t := range terms {
		if err := validateVantagePoint(t.VantagePoint); err != nil {
			return nil, 0, 0, err
		}
	}
	lo, hi = cfg.Shard.bounds(len(terms))
	if lo < 0 || hi > len(terms) || lo >= hi {
		return nil, 0, 0, fmt.Errorf("core: shard [%d,%d) outside fleet of %d terminals", lo, hi, len(terms))
	}
	return terms, lo, hi, nil
}
