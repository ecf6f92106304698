package scenario

import (
	"fmt"

	"repro/internal/astro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// BuildOptions carries host-side knobs that are not part of the spec:
// instrumentation and machine-shape overrides. The zero value is a
// plain build.
type BuildOptions struct {
	// Telemetry wires the environment into a registry (nil disables).
	Telemetry *telemetry.Registry
	// TraceDecisions > 0 records the last N campaign decisions.
	TraceDecisions int
	// DisableIndex forces linear visibility scans (ablation).
	DisableIndex bool
	// Workers / SnapshotWorkers override the spec's campaign values
	// when non-zero (CLI flags beat the file; results are identical
	// at every value, only the cost changes).
	Workers         int
	SnapshotWorkers int
}

// Built is a lowered scenario: the ready environment plus the
// campaign shape the spec asked for.
type Built struct {
	Spec *Spec
	Env  *experiments.Env
	// Slots/Oracle/ResetEvery shape the main campaign; IdentSlots
	// bounds the §4 identification-validation run.
	Slots      int
	IdentSlots int
	Oracle     bool
	ResetEvery int
}

// EnvConfig lowers the spec into an experiments.Config. Host-side
// knobs (telemetry, tracing, worker overrides) come from opt.
func (s *Spec) EnvConfig(opt BuildOptions) (experiments.Config, error) {
	shells, err := s.Shells()
	if err != nil {
		return experiments.Config{}, err
	}
	vps, err := s.VantagePoints()
	if err != nil {
		return experiments.Config{}, err
	}
	epoch, err := s.epoch()
	if err != nil {
		return experiments.Config{}, err
	}
	gsoProtection := s.Scheduler.GSOProtectionDeg
	if s.Scheduler.DisableGSO {
		gsoProtection = -1
	}
	var gs []astro.Geodetic
	for _, g := range s.Scheduler.GroundStations {
		gs = append(gs, astro.Geodetic{LatDeg: g.LatDeg, LonDeg: g.LonDeg, AltKm: g.AltKm})
	}
	workers := s.Campaign.Workers
	if opt.Workers != 0 {
		workers = opt.Workers
	}
	snapWorkers := s.Campaign.SnapshotWorkers
	if opt.SnapshotWorkers != 0 {
		snapWorkers = opt.SnapshotWorkers
	}
	return experiments.Config{
		Seed:                  s.Seed,
		Shells:                shells,
		NamePrefix:            s.Constellation.NamePrefix,
		Epoch:                 epoch,
		JitterDeg:             s.Constellation.JitterDeg,
		UseKeplerJ2:           s.Constellation.UseKeplerJ2,
		Weights:               s.Scheduler.Weights.weights(),
		MinElevationDeg:       s.Scheduler.MinElevationDeg,
		GSOProtectionDeg:      gsoProtection,
		GroundStations:        gs,
		DisableGroundStations: s.Scheduler.DisableGroundStations,
		GSMinElevationDeg:     s.Scheduler.GSMinElevationDeg,
		DisableBattery:        s.Scheduler.DisableBattery,
		VantagePoints:         vps,
		Workers:               workers,
		SnapshotWorkers:       snapWorkers,
		Telemetry:             opt.Telemetry,
		TraceDecisions:        opt.TraceDecisions,
		DisableIndex:          opt.DisableIndex,
	}, nil
}

// Build validates the spec and lowers it into a ready environment.
func (s *Spec) Build(opt BuildOptions) (*Built, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, err := s.EnvConfig(opt)
	if err != nil {
		return nil, err
	}
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	identSlots := s.Campaign.IdentSlots
	if identSlots == 0 {
		identSlots = 125 // the study's 500-identification budget
	}
	return &Built{
		Spec:       s,
		Env:        env,
		Slots:      s.Campaign.Slots,
		IdentSlots: identSlots,
		Oracle:     s.Campaign.Oracle,
		ResetEvery: s.Campaign.ResetEvery,
	}, nil
}

// CampaignConfig lowers the built scenario into the campaign engine's
// config — Env.CampaignConfig plus the spec's reset cadence, so a
// scenario that mirrors the default environment produces a
// bit-identical record stream.
func (b *Built) CampaignConfig() core.CampaignConfig {
	cfg := b.Env.CampaignConfig(b.Slots, b.Oracle)
	cfg.ResetEvery = b.ResetEvery
	return cfg
}
