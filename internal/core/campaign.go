package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
)

// CampaignConfig drives a measurement campaign: the scheduler runs,
// each terminal's dish paints the serving satellite's track every
// slot, snapshots are taken every 15 seconds, terminals reset every
// ResetEvery slots (the paper resets every 10 minutes to keep XOR
// diffs clean), and the identification pipeline labels each slot.
type CampaignConfig struct {
	Scheduler  *scheduler.Global
	Identifier *Identifier
	Start      time.Time
	Slots      int
	// ResetEvery is the terminal reset cadence in slots. Default 40
	// (= 10 minutes).
	ResetEvery int
	// Oracle skips obstruction-map identification and labels each slot
	// with the scheduler's ground-truth allocation. Use it when only
	// the chosen-vs-available data matters (the §5/§6 analyses) and the
	// identification step has been validated separately.
	Oracle bool
	// Workers bounds the worker pool for per-terminal slot processing
	// (track painting, XOR diffing, DTW identification). 0 selects
	// runtime.GOMAXPROCS(0); 1 runs every terminal on the calling
	// goroutine. Results are byte-identical at every worker count,
	// shard and resume slot: each terminal's dish state is owned by
	// exactly one worker, and records are emitted in deterministic
	// (slot, terminal) order.
	Workers int
	// SnapshotWorkers is the fan-out for the per-slot constellation
	// propagation sweep (orthogonal to Workers, which shards
	// terminals). 0 keeps the snapshot cache's current setting; <0
	// selects GOMAXPROCS; 1 forces the serial sweep. Snapshots are
	// byte-identical at every value.
	SnapshotWorkers int
	// Metrics, when non-nil, receives engine counters and the optional
	// decision trace. Purely observational: record contents, ordering,
	// and determinism are unaffected at any worker count.
	Metrics *CampaignMetrics
	// Snapshots shares propagated snapshots and spatial indexes between
	// the campaign engine and the scheduler — pass the same cache to
	// scheduler.Config.Snapshots so each slot propagates once globally.
	// Nil creates a private cache.
	Snapshots *constellation.SnapshotCache
	// DisableIndex computes available sets with the linear scan instead
	// of the spatial index (ablation / equivalence testing). Records are
	// byte-identical either way.
	DisableIndex bool
	// Shard restricts record production and emission to the contiguous
	// terminal index range [Shard.Lo, Shard.Hi) in Terminals() order.
	// The scheduler still runs the FULL fleet every slot — it is
	// stateful (hidden load walk, score-noise RNG), so every shard must
	// replay the identical Allocate sequence — but per-terminal work
	// (available sets, dish painting, identification) and emission
	// happen only inside the range. Concatenating the emissions of a
	// partition of shards slot by slot in shard order reproduces the
	// unsharded stream byte for byte. The zero value means all
	// terminals. The pool runs the shard's terminals over Workers.
	Shard ShardRange
	// EmitFromSlot suppresses emission for slots below it — the journal
	// replay knob. The engine still processes every slot from 0 (dish
	// obstruction state and identification tallies accumulate across
	// slots), so Attempted/Correct/Failed cover the whole campaign, but
	// records, Records/Served/Skips stats, and the emit callback only
	// see slots >= EmitFromSlot. Replayed slots run over Workers like
	// emitted ones.
	EmitFromSlot int
}

// ShardRange is a half-open terminal index range [Lo, Hi). The zero
// value selects every terminal.
type ShardRange struct {
	Lo, Hi int
}

// bounds resolves the range against a fleet of n terminals, mapping
// the zero value to [0, n).
func (s ShardRange) bounds(n int) (lo, hi int) {
	if s.Lo == 0 && s.Hi == 0 {
		return 0, n
	}
	return s.Lo, s.Hi
}

// validate rejects unusable configs with the historical messages.
func (c *CampaignConfig) validate() error {
	if c.Scheduler == nil {
		return fmt.Errorf("core: nil scheduler")
	}
	if c.Identifier == nil {
		return fmt.Errorf("core: nil identifier")
	}
	if c.Slots <= 0 {
		return fmt.Errorf("core: campaign needs slots > 0, got %d", c.Slots)
	}
	if c.EmitFromSlot < 0 || c.EmitFromSlot > c.Slots {
		return fmt.Errorf("core: emit-from slot %d outside campaign of %d slots", c.EmitFromSlot, c.Slots)
	}
	return nil
}

// resolveWorkers turns the Workers knob into an effective pool size
// for nTerms terminals.
func (c *CampaignConfig) resolveWorkers(nTerms int) int {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nTerms {
		workers = nTerms
	}
	return workers
}

// SlotRecord is one slot × terminal campaign outcome.
type SlotRecord struct {
	Observation
	// TrueID is the scheduler's ground-truth allocation (0 = none).
	TrueID int
	// IdentifiedID is the §4 pipeline's answer (0 when skipped).
	IdentifiedID int
	// Margin is the DTW decision margin (0 in oracle mode).
	Margin float64
	// SkipReason is non-empty when identification was not attempted or
	// failed; the record still carries the available set.
	SkipReason string
}

// CampaignResult aggregates a run.
type CampaignResult struct {
	Records []SlotRecord
	// Identification validation (non-oracle runs).
	Attempted, Correct, Failed int
	// Skips histograms the non-empty SkipReasons across Records.
	Skips map[string]int

	obsOnce sync.Once
	obs     []Observation
}

// Accuracy returns the identification accuracy over attempted slots.
func (r *CampaignResult) Accuracy() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Attempted)
}

// Observations extracts the per-slot observations with a valid chosen
// satellite, ready for the §5 analyses and §6 model. The slice is
// built once and cached — repeated calls return the same backing
// array, so treat it as read-only.
func (r *CampaignResult) Observations() []Observation {
	r.obsOnce.Do(func() {
		r.obs = make([]Observation, 0, len(r.Records))
		for _, rec := range r.Records {
			if rec.ChosenIdx >= 0 {
				r.obs = append(r.obs, rec.Observation)
			}
		}
	})
	return r.obs
}

// RunCampaign executes the campaign and materializes every record —
// the batch entry point, now a thin wrapper over RunCampaignStream
// (which long campaigns should use directly: it runs in O(1) memory
// in the slot count). Long campaigns are cancellable through ctx; on
// cancellation the partial result is discarded and ctx's error
// returned.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	res := &CampaignResult{}
	if cfg.Slots > 0 && cfg.Scheduler != nil {
		res.Records = make([]SlotRecord, 0, cfg.Slots*len(cfg.Scheduler.Terminals()))
	}
	stats, err := RunCampaignStream(ctx, cfg, func(rec SlotRecord) error {
		res.Records = append(res.Records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Attempted = stats.Attempted
	res.Correct = stats.Correct
	res.Failed = stats.Failed
	res.Skips = stats.Skips
	return res, nil
}

// slotScratch is per-worker reusable buffer space for the slot loop:
// the field-of-view sweep appends into fov instead of growing a fresh
// slice per (slot, terminal) cell, and the candidate-track kernel
// samples into the remaining buffers. Owned by exactly one goroutine.
type slotScratch struct {
	fov []constellation.Visible

	// frames holds the TEME→ECEF frame at every sample instant of the
	// slot starting at framesAt, spaced framesStep apart.
	framesAt   time.Time
	framesStep time.Duration
	frames     []astro.Frame

	sky     []obstruction.PolarPoint // one satellite's samples
	points  []dtw.Point              // backing store the candidate tracks are carved from
	cands   []dtw.Candidate
	pre     []float64 // the field of view's pre-bounds
	sampler candidateSampler
}

// framesFor returns the rotation frame of each sample instant
// slotStart + k·step, k = 0..Period/step. The table depends only on
// the slot, so it is rebuilt only when the slot or step changes and
// every terminal a worker handles in one slot shares it.
func (sc *slotScratch) framesFor(slotStart time.Time, step time.Duration) []astro.Frame {
	if sc.frames != nil && sc.framesStep == step && sc.framesAt.Equal(slotStart) {
		return sc.frames
	}
	n := int(scheduler.Period/step) + 1
	sc.frames = sc.frames[:0]
	for k := 0; k < n; k++ {
		sc.frames = append(sc.frames, astro.FrameAt(slotStart.Add(time.Duration(k)*step)))
	}
	sc.framesAt, sc.framesStep = slotStart, step
	return sc.frames
}

// runSlotTerminal produces the record for one (slot, terminal) cell.
// m is the terminal's dish state; the caller guarantees exclusive
// ownership. matcher and scratch are the caller's reusable per-worker
// buffers, likewise owned exclusively; results are bit-identical at
// any matcher because pruning is exact, and the fov scratch never
// escapes (availFromFov copies into the record).
func runSlotTerminal(cfg *CampaignConfig, term scheduler.Terminal, m *obstruction.Map,
	matcher *dtw.Matcher, scratch *slotScratch, slotStart time.Time, shared *constellation.SharedSnapshot,
	alloc scheduler.Allocation, attempted, correct, failed *int) SlotRecord {
	if cfg.DisableIndex {
		scratch.fov = constellation.AppendObserveFrom(scratch.fov[:0], term.VantagePoint.Location, shared.States, cfg.Identifier.MinElevationDeg)
	} else {
		scratch.fov = shared.Index().AppendObserveFrom(scratch.fov[:0], term.VantagePoint.Location, cfg.Identifier.MinElevationDeg)
	}
	avail := availFromFov(scratch.fov, slotStart)
	rec := SlotRecord{
		Observation: Observation{
			Terminal:  term.Name,
			SlotStart: slotStart,
			LocalHour: LocalHour(term.VantagePoint, slotStart),
			Available: avail,
			ChosenIdx: -1,
		},
		TrueID: alloc.SatID,
	}

	switch {
	case alloc.SatID == 0:
		rec.SkipReason = "no satellite allocated"
	case cfg.Oracle:
		rec.IdentifiedID = alloc.SatID
		rec.ChosenIdx = indexOf(rec.Available, alloc.SatID)
		if rec.ChosenIdx < 0 {
			rec.SkipReason = "allocated satellite not in public available set"
		}
	default:
		prev := m.Clone()
		if err := cfg.Identifier.paintServingTrack(scratch, m, alloc.SatID, term.VantagePoint, slotStart); err != nil {
			rec.SkipReason = err.Error()
			break
		}
		// Identify over the field of view already in scratch.fov: by
		// the SnapshotIndex contract it is IdentifyFromMaps's
		// linear scan of shared.States, set, order and floats.
		ident, err := cfg.Identifier.identify(scratch, prev, m, term.VantagePoint, slotStart, matcher)
		if err != nil {
			rec.SkipReason = err.Error()
			*failed++
			break
		}
		*attempted++
		rec.IdentifiedID = ident.SatID
		rec.Margin = ident.Margin
		if ident.SatID == alloc.SatID {
			*correct++
		}
		rec.ChosenIdx = indexOf(rec.Available, ident.SatID)
		if rec.ChosenIdx < 0 {
			rec.SkipReason = "identified satellite not in public available set"
		}
	}
	return rec
}

// allocFor picks terminal ti's allocation from a slot's Allocate
// output. Allocate returns one allocation per terminal in Terminals()
// order, so the index lookup is O(1); the name check plus linear
// fallback guards the record pairing if that contract ever changes —
// at fleet scale the old per-terminal scan was O(terminals²) per slot.
func allocFor(allocs []scheduler.Allocation, ti int, name string) scheduler.Allocation {
	if ti < len(allocs) && allocs[ti].Terminal == name {
		return allocs[ti]
	}
	for _, a := range allocs {
		if a.Terminal == name {
			return a
		}
	}
	return scheduler.Allocation{}
}
