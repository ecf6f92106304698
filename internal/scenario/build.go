package scenario

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
)

// BuildOptions carries host-side knobs that are not part of the spec:
// instrumentation and the index ablation. Worker counts are the spec's
// (campaign.workers, campaign.snapshot_workers). The zero value is a
// plain build.
type BuildOptions struct {
	// Telemetry wires the environment into a registry (nil disables).
	Telemetry *telemetry.Registry
	// TraceDecisions > 0 records the last N campaign decisions.
	TraceDecisions int
	// DisableIndex forces linear visibility scans (ablation).
	DisableIndex bool
}

// Built is a lowered scenario: the ready environment plus the
// campaign shape the spec asked for.
type Built struct {
	Spec *Spec
	Env  *experiments.Env
	// Slots is the main campaign's length; IdentSlots bounds the §4
	// identification-validation run. ResetEvery is the spec's reset
	// cadence, which Env.CampaignConfig applies to every campaign.
	Slots      int
	IdentSlots int
	ResetEvery int
	// opt is what Build was given; the §8 siblings reuse its index
	// setting.
	opt BuildOptions
}

// Build validates the spec and constructs its environment: the
// constellation, the terminals, the ground-truth scheduler, the
// identifier, and the snapshot cache and campaign metrics they share.
// It is the only constructor of an experiments.Env.
func (s *Spec) Build(opt BuildOptions) (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	shells, err := s.Shells()
	if err != nil {
		return nil, err
	}
	vps, err := s.VantagePoints()
	if err != nil {
		return nil, err
	}
	epoch, err := s.epoch()
	if err != nil {
		return nil, err
	}
	cons, err := constellation.New(constellation.Config{
		Shells:      shells,
		Seed:        s.Seed,
		UseKeplerJ2: s.Constellation.UseKeplerJ2,
		NamePrefix:  s.Constellation.NamePrefix,
		Epoch:       epoch,
		JitterDeg:   s.Constellation.JitterDeg,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: build constellation: %w", s.Name, err)
	}
	terms := make([]scheduler.Terminal, len(vps))
	for i, vp := range vps {
		terms[i] = scheduler.Terminal{VantagePoint: vp}
	}
	sc := &s.Scheduler
	gsoProtection := sc.GSOProtectionDeg
	if sc.DisableGSO {
		gsoProtection = -1
	}
	var gs []astro.Geodetic
	if sc.DisableGroundStations {
		gs = []astro.Geodetic{} // non-nil empty = constraint off
	}
	for _, g := range sc.GroundStations {
		gs = append(gs, astro.Geodetic{LatDeg: g.LatDeg, LonDeg: g.LonDeg, AltKm: g.AltKm})
	}
	ident, err := core.NewIdentifier(cons)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	schedMask := scheduler.DefaultMinElevationDeg
	if sc.MinElevationDeg != 0 {
		schedMask = sc.MinElevationDeg
		ident.MinElevationDeg = sc.MinElevationDeg
	}
	// The snapshots must answer every terminal's field of view at both
	// the scheduler's and the identifier's mask, so the cache sees each
	// terminal at the lower of the two.
	sights := make([]constellation.Sight, len(vps))
	for i, vp := range vps {
		sights[i] = constellation.Sight{Site: vp.Location, MinElevDeg: math.Min(schedMask, ident.MinElevationDeg)}
	}
	snaps := constellation.NewSnapshotCache(0, opt.Telemetry, sights...)
	snaps.SetSnapshotWorkers(s.Campaign.SnapshotWorkers)
	sched, err := scheduler.NewGlobal(scheduler.Config{
		Constellation:     cons,
		Terminals:         terms,
		Weights:           sc.Weights.weights(),
		MinElevationDeg:   sc.MinElevationDeg,
		GSOProtectionDeg:  gsoProtection,
		GroundStations:    gs,
		GSMinElevationDeg: sc.GSMinElevationDeg,
		DisableBattery:    sc.DisableBattery,
		Seed:              s.Seed,
		Telemetry:         opt.Telemetry,
		Snapshots:         snaps,
		DisableIndex:      opt.DisableIndex,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: build scheduler: %w", s.Name, err)
	}
	metrics := core.NewCampaignMetrics(opt.Telemetry)
	if opt.TraceDecisions > 0 {
		if metrics == nil {
			// Tracing without a registry: an otherwise-empty bundle still
			// carries the ring (all metric handles nil-safe no-ops).
			metrics = &core.CampaignMetrics{}
		}
		metrics.Trace = telemetry.NewDecisionTrace(opt.TraceDecisions)
	}
	identSlots := s.Campaign.IdentSlots
	if identSlots == 0 {
		identSlots = 125 // the study's 500-identification budget
	}
	return &Built{
		Spec: s,
		Env: &experiments.Env{
			Cons: cons, Sched: sched, Ident: ident, Terminals: terms, Seed: s.Seed,
			Workers: s.Campaign.Workers, ResetEvery: s.Campaign.ResetEvery,
			Telemetry: opt.Telemetry, Metrics: metrics,
			Snaps: snaps, DisableIndex: opt.DisableIndex,
		},
		Slots:      s.Campaign.Slots,
		IdentSlots: identSlots,
		ResetEvery: s.Campaign.ResetEvery,
		opt:        opt,
	}, nil
}

// CampaignConfig lowers the built scenario's main campaign into the
// campaign engine's config.
func (b *Built) CampaignConfig() core.CampaignConfig {
	return b.Env.CampaignConfig(b.Slots, b.Spec.Campaign.Oracle)
}

// clone returns a deep copy of s. The JSON form is the whole spec (the
// coordinator ships specs to workers the same way), so the copy shares
// no pointer or slice with s.
func (s *Spec) clone() (*Spec, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: copy: %w", s.Name, err)
	}
	c := new(Spec)
	if err := json.Unmarshal(b, c); err != nil {
		return nil, fmt.Errorf("scenario %s: copy: %w", s.Name, err)
	}
	return c, nil
}

// setWeights plants w, or restores the defaults when w is zero (the
// scheduler's reading of zero weights).
func (s *Spec) setWeights(w scheduler.Weights) {
	s.Scheduler.Weights = nil
	if w != (scheduler.Weights{}) {
		ws := WeightsSpec(w)
		s.Scheduler.Weights = &ws
	}
}
