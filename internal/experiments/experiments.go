// Package experiments wires the full reproduction together: one
// environment (constellation + terminals + ground-truth scheduler +
// identification pipeline) and one entry point per paper figure or
// table. cmd/repro renders these results as text; bench_test.go times
// them; EXPERIMENTS.md records paper-vs-measured numbers from the same
// code paths.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ml"
	"repro/internal/netsim"
	"repro/internal/obstruction"
	"repro/internal/pipeline"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config assembles an environment. scenario.Spec lowers into it
// (Spec.EnvConfig); build environments from a spec, not by hand.
type Config struct {
	Seed int64
	// Shells is the constellation design (required).
	Shells []constellation.Shell
	// NamePrefix names synthetic satellites "<prefix>-<n>"; empty
	// keeps the STARLINK catalog naming.
	NamePrefix string
	// Epoch overrides the constellation TLE epoch (zero keeps the
	// 2023-03-01 study epoch).
	Epoch time.Time
	// JitterDeg overrides the constellation's orbital-element jitter
	// sigma (0 keeps the 0.15° default).
	JitterDeg float64
	// UseKeplerJ2 swaps the ablation propagator into the constellation.
	UseKeplerJ2 bool
	// Weights overrides the scheduler's preferences (ablations); zero
	// value uses the defaults.
	Weights scheduler.Weights
	// MinElevationDeg overrides the terminal hardware mask for both
	// the scheduler and the identifier's available sets (0 keeps the
	// study's 25°).
	MinElevationDeg float64
	// GSOProtectionDeg < 0 disables the exclusion zone (ablation).
	GSOProtectionDeg float64
	// GroundStations overrides the gateway sites for the bent-pipe
	// constraint; nil keeps the study PoPs' co-located gateways.
	GroundStations []astro.Geodetic
	// DisableGroundStations removes the bent-pipe constraint entirely
	// (lowered to scheduler.Config's explicit empty slice).
	DisableGroundStations bool
	// GSMinElevationDeg is the gateway visibility mask (0 keeps 25°).
	GSMinElevationDeg float64
	// DisableBattery removes the satellite energy model (ablation).
	DisableBattery bool
	// VantagePoints overrides the study's four sites (e.g. the §8
	// southern-hemisphere generalization, or scenario placements).
	VantagePoints []geo.VantagePoint
	// Workers bounds the campaign worker pool (see
	// core.CampaignConfig.Workers). 0 uses all CPUs; 1 forces the
	// serial engine.
	Workers int
	// SnapshotWorkers is the fan-out for the per-slot constellation
	// propagation sweep (see core.CampaignConfig.SnapshotWorkers). 0
	// selects GOMAXPROCS; 1 forces the serial sweep. Byte-identical
	// output at every value.
	SnapshotWorkers int
	// Telemetry, when non-nil, wires the environment's scheduler,
	// campaigns, pipelines, and model training into the registry. Nil
	// (the default) keeps every hot path on its uninstrumented branch.
	Telemetry *telemetry.Registry
	// TraceDecisions, when > 0, records the last N campaign decisions
	// into a telemetry.DecisionTrace ring (Env.Trace).
	TraceDecisions int
	// DisableIndex forces linear visibility scans instead of the
	// spatial index (ablation / equivalence checks). Results are
	// identical either way.
	DisableIndex bool
}

// Env is a ready-to-run reproduction environment.
type Env struct {
	Cons      *constellation.Constellation
	Sched     *scheduler.Global
	Ident     *core.Identifier
	Terminals []scheduler.Terminal
	Seed      int64
	// Workers is passed to every campaign this environment runs.
	Workers int
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
	// cfg is the Config this environment was built from; the §8
	// sibling environments are copies of it.
	cfg Config
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

// NewEnv builds the constellation, terminals, scheduler, and
// identifier.
func NewEnv(cfg Config) (*Env, error) {
	if len(cfg.Shells) == 0 {
		return nil, fmt.Errorf("experiments: no constellation shells")
	}
	cons, err := constellation.New(constellation.Config{
		Shells:      cfg.Shells,
		Seed:        cfg.Seed,
		UseKeplerJ2: cfg.UseKeplerJ2,
		NamePrefix:  cfg.NamePrefix,
		Epoch:       cfg.Epoch,
		JitterDeg:   cfg.JitterDeg,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build constellation: %w", err)
	}
	vps := cfg.VantagePoints
	if len(vps) == 0 {
		vps = geo.StudyVantagePoints()
	}
	var terms []scheduler.Terminal
	for _, vp := range vps {
		terms = append(terms, scheduler.Terminal{VantagePoint: vp, Priority: 1})
	}
	gs := cfg.GroundStations
	if cfg.DisableGroundStations {
		gs = []astro.Geodetic{} // non-nil empty = constraint off
	}
	snaps := constellation.NewSnapshotCache(0, cfg.Telemetry)
	snaps.SetSnapshotWorkers(cfg.SnapshotWorkers)
	sched, err := scheduler.NewGlobal(scheduler.Config{
		Constellation:     cons,
		Terminals:         terms,
		Weights:           cfg.Weights,
		MinElevationDeg:   cfg.MinElevationDeg,
		GSOProtectionDeg:  cfg.GSOProtectionDeg,
		GroundStations:    gs,
		GSMinElevationDeg: cfg.GSMinElevationDeg,
		DisableBattery:    cfg.DisableBattery,
		Seed:              cfg.Seed,
		Telemetry:         cfg.Telemetry,
		Snapshots:         snaps,
		DisableIndex:      cfg.DisableIndex,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build scheduler: %w", err)
	}
	ident, err := core.NewIdentifier(cons)
	if err != nil {
		return nil, err
	}
	if cfg.MinElevationDeg != 0 {
		ident.MinElevationDeg = cfg.MinElevationDeg
	}
	e := &Env{Cons: cons, Sched: sched, Ident: ident, Terminals: terms, Seed: cfg.Seed,
		Workers: cfg.Workers, Telemetry: cfg.Telemetry,
		Snaps: snaps, DisableIndex: cfg.DisableIndex, cfg: cfg}
	e.Metrics = core.NewCampaignMetrics(cfg.Telemetry)
	if cfg.TraceDecisions > 0 {
		if e.Metrics == nil {
			// Tracing without a registry: an otherwise-empty bundle still
			// carries the ring (all metric handles nil-safe no-ops).
			e.Metrics = &core.CampaignMetrics{}
		}
		e.Metrics.Trace = telemetry.NewDecisionTrace(cfg.TraceDecisions)
	}
	return e, nil
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

// Fig2 generates the Figure 2 trace (default: EU terminal = Madrid,
// 2 minutes at 1 probe / 20 ms).
func (e *Env) Fig2(terminalName string, dur time.Duration) (*Fig2Result, error) {
	if terminalName == "" {
		terminalName = "Madrid"
	}
	if dur == 0 {
		dur = 2 * time.Minute
	}
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	path, err := netsim.NewPath(netsim.Config{
		Constellation: e.Cons,
		Scheduler:     e.Sched,
		Terminal:      term,
		Seed:          e.Seed,
	})
	if err != nil {
		return nil, err
	}
	samples, err := path.Trace(e.Start(), dur, 20*time.Millisecond)
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
	if dur == 0 {
		dur = 5 * time.Minute
	}
	var out []WindowStatsResult
	for _, term := range e.Terminals {
		path, err := netsim.NewPath(netsim.Config{
			Constellation: e.Cons,
			Scheduler:     e.Sched,
			Terminal:      term,
			Seed:          e.Seed,
		})
		if err != nil {
			return nil, err
		}
		samples, err := path.Trace(e.Start(), dur, 20*time.Millisecond)
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
	if terminalName == "" {
		terminalName = "Iowa"
	}
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	start := e.Start()
	// Slot t-1 and t: paint the true serving satellite's track.
	m := obstruction.New()
	allocs := e.Sched.Allocate(start)
	var a0 scheduler.Allocation
	for _, a := range allocs {
		if a.Terminal == term.Name {
			a0 = a
		}
	}
	if a0.SatID == 0 {
		return nil, fmt.Errorf("experiments: no allocation for %s", term.Name)
	}
	if err := e.Ident.PaintServingTrack(m, a0.SatID, term.VantagePoint, start); err != nil {
		return nil, err
	}
	prev := m.Clone()

	next := start.Add(scheduler.Period)
	allocs = e.Sched.Allocate(next)
	var a1 scheduler.Allocation
	for _, a := range allocs {
		if a.Terminal == term.Name {
			a1 = a
		}
	}
	if a1.SatID == 0 {
		return nil, fmt.Errorf("experiments: no allocation for %s in second slot", term.Name)
	}
	if err := e.Ident.PaintServingTrack(m, a1.SatID, term.VantagePoint, next); err != nil {
		return nil, err
	}
	cur := m.Clone()

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

// IdentValidation runs a measured (non-oracle) campaign through the
// streaming pipeline and scores the identifications — records are
// folded into the margin series as they arrive and never materialize.
// naive switches to the nearest-endpoint ablation.
func (e *Env) IdentValidation(slots int, naive bool) (*IdentResult, error) {
	if slots == 0 {
		slots = 125 // 125 slots x 4 terminals = 500 identifications
	}
	ident := *e.Ident
	ident.UseNaiveMatcher = naive
	src := &pipeline.Campaign{Config: e.CampaignConfig(slots, false)}
	src.Config.Identifier = &ident
	var margins []float64
	p := &pipeline.Pipeline{
		Source:  src,
		Metrics: pipeline.NewMetrics(e.Telemetry),
		Sinks: []pipeline.Sink{pipeline.SinkFunc(func(rec *pipeline.Record) error {
			if rec.SkipReason == "" && rec.Margin > 0 {
				margins = append(margins, rec.Margin)
			}
			return nil
		})},
	}
	if err := p.Run(e.ctx()); err != nil {
		return nil, err
	}
	out := &IdentResult{
		Attempted: src.Stats.Attempted,
		Correct:   src.Stats.Correct,
		Failed:    src.Stats.Failed,
		Accuracy:  src.Stats.Accuracy(),
	}
	if len(margins) > 0 {
		out.MedianMargin = stats.Median(margins)
	}
	return out, nil
}

// CampaignConfig is the campaign engine config for one of this
// environment's campaigns: its scheduler, identifier, start, worker
// pool, metrics, snapshot cache and index setting. Callers change only
// what differs from the environment (Start, ResetEvery,
// SnapshotWorkers, a modified Identifier copy).
func (e *Env) CampaignConfig(slots int, oracle bool) core.CampaignConfig {
	return core.CampaignConfig{
		Scheduler:    e.Sched,
		Identifier:   e.Ident,
		Start:        e.Start(),
		Slots:        slots,
		Oracle:       oracle,
		Workers:      e.Workers,
		Metrics:      e.Metrics,
		Snapshots:    e.Snaps,
		DisableIndex: e.DisableIndex,
	}
}

// CampaignSource returns a pipeline source for one of this
// environment's campaigns, ready to wire into arbitrary stages and
// sinks. slots 0 defaults to 500.
func (e *Env) CampaignSource(slots int, oracle bool) *pipeline.Campaign {
	if slots == 0 {
		slots = 500
	}
	return &pipeline.Campaign{Config: e.CampaignConfig(slots, oracle)}
}

// StreamObservations drives one oracle campaign through the pipeline,
// feeding every sink the chosen-only observation stream (the §5/§6
// input rows), and returns the campaign's O(1)-memory summary —
// including how many records were dropped on the way and why.
func (e *Env) StreamObservations(slots int, sinks ...pipeline.Sink) (*core.CampaignStats, error) {
	src := e.CampaignSource(slots, true)
	p := &pipeline.Pipeline{
		Source:  src,
		Stages:  []pipeline.Stage{pipeline.ChosenOnly()},
		Sinks:   sinks,
		Metrics: pipeline.NewMetrics(e.Telemetry),
	}
	if err := p.Run(e.ctx()); err != nil {
		return nil, err
	}
	return src.Stats, nil
}

// Observations runs an oracle campaign and returns the §5/§6 inputs
// (batch wrapper over StreamObservations).
func (e *Env) Observations(slots int) ([]core.Observation, error) {
	obs, _, err := e.ObservationsWithStats(slots)
	return obs, err
}

// ObservationsWithStats is Observations plus the campaign summary:
// record and served-row totals and the skip-reason histogram behind
// every dropped slot.
func (e *Env) ObservationsWithStats(slots int) ([]core.Observation, *core.CampaignStats, error) {
	collect := &pipeline.CollectObservations{}
	st, err := e.StreamObservations(slots, collect)
	if err != nil {
		return nil, nil, err
	}
	return collect.Obs, st, nil
}

// StreamResult is one single-pass run of every §5 analysis and the §6
// dataset build over a streaming campaign: no record or observation
// slice ever materializes, so the campaign length is bounded by time,
// not memory.
type StreamResult struct {
	Stats   *core.CampaignStats
	AOE     *core.AOEAnalysis
	Azimuth *core.AzimuthAnalysis
	Launch  *core.LaunchAnalysis
	Sunlit  *core.SunlitAnalysis
	Dataset *ml.Dataset
}

// StreamAnalyses runs one oracle campaign and computes every §5
// analysis plus the §6 dataset in a single streaming pass. The outputs
// are bit-identical to running Observations and the batch analyzers
// (the pipeline golden tests hold this), at O(1) memory in the slot
// count.
func (e *Env) StreamAnalyses(slots int) (*StreamResult, error) {
	aoe := core.NewAOEAccumulator(27)
	az := core.NewAzimuthAccumulator(27)
	la := core.NewLaunchAccumulator("New York")
	su := core.NewSunlitAccumulator(27)
	ds := core.NewDatasetBuilder()
	st, err := e.StreamObservations(slots,
		pipeline.Feed(aoe), pipeline.Feed(az), pipeline.Feed(la), pipeline.Feed(su), pipeline.Feed(ds))
	if err != nil {
		return nil, err
	}
	out := &StreamResult{Stats: st}
	if out.AOE, err = aoe.Finalize(); err != nil {
		return nil, err
	}
	if out.Azimuth, err = az.Finalize(); err != nil {
		return nil, err
	}
	if out.Launch, err = la.Finalize(); err != nil {
		return nil, err
	}
	if out.Sunlit, err = su.Finalize(); err != nil {
		return nil, err
	}
	if out.Dataset, err = ds.Finalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4 computes the angle-of-elevation analysis.
func (e *Env) Fig4(obs []core.Observation) (*core.AOEAnalysis, error) {
	return core.AnalyzeAOE(obs, 27)
}

// Fig5 computes the azimuth analysis.
func (e *Env) Fig5(obs []core.Observation) (*core.AzimuthAnalysis, error) {
	return core.AnalyzeAzimuth(obs, 27)
}

// Fig6 computes the launch-date analysis, excluding the obstructed
// New York site from the mean as the paper does.
func (e *Env) Fig6(obs []core.Observation) (*core.LaunchAnalysis, error) {
	return core.AnalyzeLaunch(obs, "New York")
}

// Fig7 computes the sunlit analysis.
func (e *Env) Fig7(obs []core.Observation) (*core.SunlitAnalysis, error) {
	return core.AnalyzeSunlit(obs, 27)
}

// Fig8 trains and evaluates the §6 model on the environment's worker
// pool (Env.Workers; results are bit-identical at any pool size).
func (e *Env) Fig8(obs []core.Observation, cfg core.ModelConfig) (*core.ModelResult, error) {
	d, err := core.BuildDataset(obs)
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = e.Seed + 1
	}
	if cfg.Workers == 0 {
		cfg.Workers = e.Workers
	}
	if cfg.Metrics == nil {
		cfg.Metrics = ml.NewMetrics(e.Telemetry)
	}
	return core.TrainModelCtx(e.ctx(), d, cfg)
}

// QuickModelConfig is a reduced grid for tests and benches.
func QuickModelConfig(seed int64) core.ModelConfig {
	return core.ModelConfig{
		Folds: 3,
		Grid:  []ml.ForestConfig{{NumTrees: 30, Tree: ml.TreeConfig{MaxDepth: 10}}},
		Seed:  seed,
	}
}
