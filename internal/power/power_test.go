package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBatteryConfigValidation(t *testing.T) {
	bad := DefaultBatteryConfig()
	bad.CapacityWh = 0
	if _, err := NewBattery(bad); err == nil {
		t.Error("zero capacity accepted")
	}
	bad = DefaultBatteryConfig()
	bad.SolarW = 100 // below idle
	if _, err := NewBattery(bad); err == nil {
		t.Error("insufficient solar accepted")
	}
	bad = DefaultBatteryConfig()
	bad.InitialSoC = 0.01 // below floor
	if _, err := NewBattery(bad); err == nil {
		t.Error("initial below floor accepted")
	}
}

func TestBatteryChargesInSun(t *testing.T) {
	cfg := DefaultBatteryConfig()
	cfg.InitialSoC = 0.5
	b, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Step(30*time.Minute, true, 0)
	if b.SoC() <= 0.5 {
		t.Errorf("SoC after sunlit idle = %v", b.SoC())
	}
}

func TestBatteryDrainsInEclipse(t *testing.T) {
	cfg := DefaultBatteryConfig()
	b, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := b.SoC()
	b.Step(30*time.Minute, false, 1)
	if b.SoC() >= start {
		t.Errorf("SoC after eclipsed full-load = %v, started %v", b.SoC(), start)
	}
}

func TestBatteryBounds(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultBatteryConfig()
		b, err := NewBattery(cfg)
		if err != nil {
			return false
		}
		// Arbitrary step sequence must stay within [MinSoC, 1].
		s := seed
		for i := 0; i < 200; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			sunlit := s&1 == 0
			util := math.Abs(float64(s%1000)) / 1000
			b.Step(10*time.Minute, sunlit, util)
			if b.SoC() < cfg.MinSoC-1e-9 || b.SoC() > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBatterySurvivesEclipseAtIdle(t *testing.T) {
	// A 35-minute eclipse at idle must not hit the protection floor
	// from a healthy state.
	cfg := DefaultBatteryConfig()
	b, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Step(35*time.Minute, false, 0)
	if b.Constrained() {
		t.Errorf("idle eclipse drained to the floor: SoC %v", b.SoC())
	}
	// But a full orbit's worth of eclipsed full-load service does.
	b2, _ := NewBattery(cfg)
	b2.Step(95*time.Minute, false, 1)
	if !b2.Constrained() {
		t.Errorf("sustained eclipsed load did not constrain: SoC %v", b2.SoC())
	}
}

func TestBatteryOrbitEquilibrium(t *testing.T) {
	// Cycling 60 sunlit + 35 eclipsed minutes at moderate load should
	// hold a healthy average SoC (the constellation is power-positive).
	cfg := DefaultBatteryConfig()
	b, err := NewBattery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for orbit := 0; orbit < 20; orbit++ {
		b.Step(60*time.Minute, true, 0.4)
		b.Step(35*time.Minute, false, 0.4)
	}
	if b.SoC() < 0.5 {
		t.Errorf("equilibrium SoC = %v, want healthy", b.SoC())
	}
}

func TestFleet(t *testing.T) {
	// Positions 0, 1, 2 hold satellites 3, 1, 2.
	f, err := NewFleet([]int{3, 1, 2}, DefaultBatteryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.SoC(1) != DefaultBatteryConfig().InitialSoC {
		t.Error("initial SoC")
	}
	if f.SoC(999) != 1 {
		t.Error("unknown position should report full charge")
	}
	if f.Constrained(999) {
		t.Error("unknown position constrained")
	}
	// Eclipse satellite 1 (position 1) under load; keep 2 (position 2)
	// sunlit and idle.
	for i := 0; i < 12; i++ {
		f.Step(15*time.Second, []bool{true, false, true}, []float64{0, 1, 0})
	}
	if !(f.SoC(1) < f.SoC(2)) {
		t.Errorf("loaded+eclipsed %v not below sunlit idle %v", f.SoC(1), f.SoC(2))
	}
	if f.MeanSoC() <= 0 || f.MeanSoC() > 1 {
		t.Errorf("mean SoC %v", f.MeanSoC())
	}
}

func TestFleetDuplicateIDs(t *testing.T) {
	if _, err := NewFleet([]int{1, 1}, DefaultBatteryConfig()); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestFleetConstrainedCount(t *testing.T) {
	f, err := NewFleet([]int{1, 2}, DefaultBatteryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.ConstrainedCount() != 0 {
		t.Error("fresh fleet constrained")
	}
	f.Step(10*time.Hour, []bool{false, true}, []float64{1, 0})
	if f.ConstrainedCount() != 1 {
		t.Errorf("constrained count = %d", f.ConstrainedCount())
	}
}

// MeanSoC returns the fleet-average state of charge.
func (f *Fleet) MeanSoC() float64 {
	if len(f.bats) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range f.bats {
		sum += f.bats[i].SoC()
	}
	return sum / float64(len(f.bats))
}

// ConstrainedCount returns how many batteries sit at the floor.
func (f *Fleet) ConstrainedCount() int {
	n := 0
	for i := range f.bats {
		if f.bats[i].Constrained() {
			n++
		}
	}
	return n
}

// NewBattery builds a battery at the configured initial state.
func NewBattery(cfg BatteryConfig) (*Battery, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Battery{cfg: cfg, soc: cfg.InitialSoC}, nil
}
