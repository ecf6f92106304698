// Package experiments holds the analyses of one environment: one
// entry point per paper figure or table that needs a single
// constellation, terminal set and ground-truth scheduler. The
// environment (Env) is built by scenario.Spec.Build, its only
// constructor; analyses that compare several environments (the §8
// siblings, drift) live in scenario. cmd/repro renders these results
// as text; bench_test.go times them; EXPERIMENTS.md records
// paper-vs-measured numbers from the same code paths.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/netsim"
	"repro/internal/obstruction"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Env is a ready-to-run reproduction environment, built by
// scenario.Spec.Build.
type Env struct {
	Cons      *constellation.Constellation
	Sched     *scheduler.Global
	Ident     *core.Identifier
	Terminals []scheduler.Terminal
	Seed      int64
	// Workers is passed to every campaign this environment runs.
	Workers int
	// ResetEvery is the terminal reset cadence, in slots, of every
	// campaign this environment runs (0 keeps the engine's default).
	ResetEvery int
	// Ctx, when non-nil, cancels this environment's campaign loops
	// (cmd/repro wires Ctrl-C here). Nil means context.Background().
	Ctx context.Context
	// Telemetry is the registry every layer reports into (nil when
	// disabled).
	Telemetry *telemetry.Registry
	// Metrics is the campaign instrumentation bundle shared by every
	// campaign this environment runs (nil when telemetry is disabled).
	Metrics *core.CampaignMetrics
	// Snaps is the snapshot cache shared by the scheduler and every
	// campaign this environment runs, so each slot propagates (and
	// indexes) the constellation once globally.
	Snaps *constellation.SnapshotCache
	// DisableIndex forces linear visibility scans everywhere (ablation;
	// results are identical, only slower).
	DisableIndex bool
}

// Trace returns the decision-trace ring, nil when tracing is off.
func (e *Env) Trace() *telemetry.DecisionTrace {
	if e.Metrics == nil {
		return nil
	}
	return e.Metrics.Trace
}

// ctx returns the environment's cancellation context.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// Start returns the campaign start time (one hour past the TLE epoch,
// aligned to the allocation grid).
func (e *Env) Start() time.Time {
	return scheduler.EpochStart(e.Cons.Epoch.Add(time.Hour))
}

// terminal finds a terminal by name.
func (e *Env) terminal(name string) (scheduler.Terminal, error) {
	for _, t := range e.Terminals {
		if t.Name == name {
			return t, nil
		}
	}
	return scheduler.Terminal{}, fmt.Errorf("experiments: unknown terminal %q", name)
}

// trace probes one terminal's path from the campaign start for dur, one
// probe per 20 ms.
func (e *Env) trace(term scheduler.Terminal, dur time.Duration) ([]netsim.Sample, error) {
	path, err := netsim.NewPath(netsim.Config{
		Constellation: e.Cons,
		Scheduler:     e.Sched,
		Terminal:      term,
		Seed:          e.Seed,
	})
	if err != nil {
		return nil, err
	}
	return path.Trace(e.Start(), dur, 20*time.Millisecond)
}

// allocation is the scheduler's allocation for the named terminal in
// the slot at t (SatID 0 when unserved). The slot's allocations go
// into *buf, whose array a caller walking slots reuses.
func (e *Env) allocation(buf *[]scheduler.Allocation, name string, t time.Time) scheduler.Allocation {
	*buf = e.Sched.AppendAllocate((*buf)[:0], t)
	for _, a := range *buf {
		if a.Terminal == name {
			return a
		}
	}
	return scheduler.Allocation{}
}

// Fig2Result is the Figure 2 artifact: a two-minute high-frequency RTT
// trace from one terminal with per-slot statistics.
type Fig2Result struct {
	Terminal string
	Samples  []netsim.Sample
	// BoundarySeconds are the seconds-past-the-minute at which slot
	// boundaries fall (the paper: 12, 27, 42, 57).
	BoundarySeconds []int
	// WindowMedians holds the median RTT of each 15-second window —
	// the regime levels visible in the figure.
	WindowMedians []float64
}

// Fig2 generates the Figure 2 trace: dur of one terminal's RTT at 1
// probe / 20 ms (the paper: the EU terminal, Madrid, for 2 minutes).
func (e *Env) Fig2(terminalName string, dur time.Duration) (*Fig2Result, error) {
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	samples, err := e.trace(term, dur)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Terminal: terminalName, Samples: samples}
	seen := map[int]bool{}
	for _, w := range netsim.SplitBySlot(samples) {
		res.WindowMedians = append(res.WindowMedians, stats.Median(netsim.RTTs(w)))
		sec := scheduler.EpochStart(w[0].T).Second()
		if !seen[sec] {
			seen[sec] = true
			res.BoundarySeconds = append(res.BoundarySeconds, sec)
		}
	}
	return res, nil
}

// WindowStatsResult is the §3 statistical test: Mann-Whitney U between
// consecutive 15-second windows per terminal.
type WindowStatsResult struct {
	Terminal        string
	Windows         int
	Comparisons     int
	SignificantFrac float64 // fraction with p < 0.05
	MedianP         float64
}

// WindowStats runs the §3 test over a trace of the given duration for
// every terminal.
func (e *Env) WindowStats(dur time.Duration) ([]WindowStatsResult, error) {
	// Every terminal's trace walks the same slots, and allocating a
	// slot reads its snapshot: hold the window's snapshots across the
	// terminals so that each slot propagates once, not once per
	// terminal.
	start := e.Start()
	for t := scheduler.EpochStart(start); t.Before(start.Add(dur)); t = t.Add(scheduler.Period) {
		defer e.Snaps.Acquire(e.Cons, t).Release()
	}
	var out []WindowStatsResult
	for _, term := range e.Terminals {
		samples, err := e.trace(term, dur)
		if err != nil {
			return nil, err
		}
		windows := netsim.SplitBySlot(samples)
		res := WindowStatsResult{Terminal: term.Name, Windows: len(windows)}
		var ps []float64
		for i := 1; i < len(windows); i++ {
			a, b := netsim.RTTs(windows[i-1]), netsim.RTTs(windows[i])
			if len(a) < 8 || len(b) < 8 {
				continue
			}
			mw, err := stats.MannWhitneyU(a, b)
			if err != nil {
				continue
			}
			res.Comparisons++
			ps = append(ps, mw.P)
			if mw.P < 0.05 {
				res.SignificantFrac++
			}
		}
		if res.Comparisons > 0 {
			res.SignificantFrac /= float64(res.Comparisons)
			res.MedianP = stats.Median(ps)
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig3Result is the obstruction-map walkthrough: two consecutive
// snapshots, their XOR, a two-day filled map, and the parameters
// recovered from it.
type Fig3Result struct {
	Prev, Cur, Diff *obstruction.Map
	Filled          *obstruction.Map
	Recovered       obstruction.Params
}

// Fig3 reproduces the §4 obstruction-map methodology for one terminal.
func (e *Env) Fig3(terminalName string) (*Fig3Result, error) {
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	// Slot t-1 and t: paint the true serving satellite's track.
	m := obstruction.New()
	var maps [2]*obstruction.Map
	var allocs []scheduler.Allocation
	for i := range maps {
		t := e.Start().Add(time.Duration(i) * scheduler.Period)
		a := e.allocation(&allocs, term.Name, t)
		if a.SatID == 0 {
			return nil, fmt.Errorf("experiments: no allocation for %s in slot %d", term.Name, i+1)
		}
		if err := e.Ident.PaintServingTrack(m, a.SatID, term.VantagePoint, t); err != nil {
			return nil, err
		}
		maps[i] = m.Clone()
	}
	prev, cur := maps[0], maps[1]

	// "Two days without reset": fill the plot disk by sweeping the sky.
	filled := obstruction.New()
	for el := 25.0; el <= 90; el += 0.4 {
		for az := 0.0; az < 360; az += 0.4 {
			filled.PaintPoint(obstruction.PolarPoint{ElevationDeg: el, AzimuthDeg: az})
		}
	}
	params, err := obstruction.RecoverParams(filled)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Prev: prev, Cur: cur, Diff: obstruction.XOR(prev, cur),
		Filled: filled, Recovered: params,
	}, nil
}

// IdentResult is the §4 validation: identification accuracy against
// ground truth, the reproduction's version of the 500-sample pilot
// study.
type IdentResult struct {
	Attempted, Correct, Failed int
	Accuracy                   float64
	MedianMargin               float64
}

// IdentValidation runs a measured (non-oracle) campaign and scores the
// identifications — records are folded into the margin series as they
// arrive and never materialize. naive switches to the nearest-endpoint
// ablation.
func (e *Env) IdentValidation(slots int, naive bool) (*IdentResult, error) {
	ident := *e.Ident
	ident.UseNaiveMatcher = naive
	cfg := e.CampaignConfig(slots, false)
	cfg.Identifier = &ident
	var margins []float64
	st, err := core.RunCampaignStream(e.ctx(), cfg, func(rec core.SlotRecord) error {
		if rec.SkipReason == "" && rec.Margin > 0 {
			margins = append(margins, rec.Margin)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &IdentResult{
		Attempted: st.Attempted,
		Correct:   st.Correct,
		Failed:    st.Failed,
		Accuracy:  st.Accuracy(),
	}
	if len(margins) > 0 {
		out.MedianMargin = stats.Median(margins)
	}
	return out, nil
}

// CampaignConfig is the campaign engine config for one of this
// environment's campaigns: its scheduler, identifier, start, reset
// cadence, worker pool, metrics, snapshot cache and index setting.
// Callers change only what differs from the environment (Start, a
// modified Identifier copy).
func (e *Env) CampaignConfig(slots int, oracle bool) core.CampaignConfig {
	return core.CampaignConfig{
		Scheduler:    e.Sched,
		Identifier:   e.Ident,
		Start:        e.Start(),
		Slots:        slots,
		Oracle:       oracle,
		ResetEvery:   e.ResetEvery,
		Workers:      e.Workers,
		Metrics:      e.Metrics,
		Snapshots:    e.Snaps,
		DisableIndex: e.DisableIndex,
	}
}

// StreamObservations runs one oracle campaign and hands every
// observation with a chosen satellite (the §5/§6 input rows) to each
// consumer in turn — a core.ObservationConsumer's Add, or any closure —
// as the engine emits it. It returns the campaign's O(1)-memory
// summary, including how many records were dropped on the way and why.
// The first consumer error aborts the campaign and is returned.
func (e *Env) StreamObservations(slots int, consumers ...func(core.Observation) error) (*core.CampaignStats, error) {
	return core.RunCampaignStream(e.ctx(), e.CampaignConfig(slots, true), func(rec core.SlotRecord) error {
		if rec.ChosenIdx < 0 {
			return nil
		}
		for _, add := range consumers {
			if err := add(rec.Observation); err != nil {
				return err
			}
		}
		return nil
	})
}

// QuickModelConfig is a reduced grid for tests and benches.
func QuickModelConfig(seed int64) core.ModelConfig {
	return core.ModelConfig{
		Folds: 3,
		Grid:  []ml.ForestConfig{{NumTrees: 30, Tree: ml.TreeConfig{MaxDepth: 10}}},
		Seed:  seed,
	}
}
