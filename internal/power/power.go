// Package power models satellite energy: solar charging while sunlit,
// battery drain while eclipsed, and extra drain proportional to
// traffic load. The paper's introduction lists "satellite charge"
// among the global scheduler's inputs, and its §5.3 rationale — dark
// satellites have limited battery, so the scheduler assigns them only
// high-elevation (low-RF-power) terminals — is exactly the coupling
// this package provides to internal/scheduler.
package power

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// BatteryConfig sets the energy model's constants. The defaults are
// loosely calibrated to a Starlink v1.5-class bus: the battery rides
// through a ~35-minute eclipse with comfortable margin at idle but
// sags visibly under sustained load.
type BatteryConfig struct {
	CapacityWh    float64 // usable battery capacity
	SolarW        float64 // panel output while sunlit
	IdleW         float64 // bus load, always present
	ServeWPerUtil float64 // extra draw at utilization 1.0
	// InitialSoC is the starting state of charge in [MinSoC, 1].
	InitialSoC float64
	// MinSoC is the protection floor; the model clamps here and flags
	// the satellite as power-constrained.
	MinSoC float64
}

// DefaultBatteryConfig returns the calibrated defaults.
func DefaultBatteryConfig() BatteryConfig {
	return BatteryConfig{
		CapacityWh:    5000,
		SolarW:        4000,
		IdleW:         1200,
		ServeWPerUtil: 2500,
		InitialSoC:    0.85,
		MinSoC:        0.15,
	}
}

func (c *BatteryConfig) validate() error {
	if c.CapacityWh <= 0 {
		return fmt.Errorf("power: capacity %v Wh", c.CapacityWh)
	}
	if c.SolarW <= c.IdleW {
		return fmt.Errorf("power: solar %v W cannot sustain idle %v W", c.SolarW, c.IdleW)
	}
	if c.InitialSoC < c.MinSoC || c.InitialSoC > 1 {
		return fmt.Errorf("power: initial SoC %v outside [%v, 1]", c.InitialSoC, c.MinSoC)
	}
	return nil
}

// Battery is one satellite's energy state.
type Battery struct {
	cfg BatteryConfig
	soc float64
}

// SoC returns the state of charge in [MinSoC, 1].
func (b *Battery) SoC() float64 { return b.soc }

// Constrained reports whether the battery sits at its protection
// floor.
func (b *Battery) Constrained() bool { return b.soc <= b.cfg.MinSoC+1e-9 }

// Step advances the battery by dt. sunlit selects solar input; util in
// [0,1] scales the service drain.
func (b *Battery) Step(dt time.Duration, sunlit bool, util float64) {
	util = units.Clamp(util, 0, 1)
	watts := -b.cfg.IdleW - util*b.cfg.ServeWPerUtil
	if sunlit {
		watts += b.cfg.SolarW
	}
	deltaWh := watts * dt.Hours()
	b.soc = units.Clamp(b.soc+deltaWh/b.cfg.CapacityWh, b.cfg.MinSoC, 1)
}

// Fleet tracks one battery per satellite, held densely by
// constellation position: battery i belongs to the satellite at index
// i of the ID list NewFleet was given.
type Fleet struct {
	bats []Battery
}

// NewFleet builds one battery per entry of ids, in that order, so
// callers address them by position. Duplicate IDs are rejected.
func NewFleet(ids []int, cfg BatteryConfig) (*Fleet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	seen := make(map[int]bool, len(ids))
	f := &Fleet{bats: make([]Battery, len(ids))}
	for i, id := range ids {
		if seen[id] {
			return nil, fmt.Errorf("power: duplicate satellite id %d", id)
		}
		seen[id] = true
		f.bats[i] = Battery{cfg: cfg, soc: cfg.InitialSoC}
	}
	return f, nil
}

// SoC returns the state of charge of the battery at position pos (1.0
// for positions outside the fleet, so absent telemetry never
// penalizes a candidate).
func (f *Fleet) SoC(pos int) float64 {
	if pos < 0 || pos >= len(f.bats) {
		return 1
	}
	return f.bats[pos].SoC()
}

// Constrained reports the protection-floor flag of the battery at
// position pos (false outside the fleet).
func (f *Fleet) Constrained(pos int) bool {
	if pos < 0 || pos >= len(f.bats) {
		return false
	}
	return f.bats[pos].Constrained()
}

// Step advances every battery by dt. sunlit[i] and util[i] are the
// state of the satellite at position i; both need one entry per
// battery.
func (f *Fleet) Step(dt time.Duration, sunlit []bool, util []float64) {
	for i := range f.bats {
		f.bats[i].Step(dt, sunlit[i], util[i])
	}
}
