// Package netsim models the Starlink data path end to end — user
// terminal, serving satellite, ground station, PoP — well enough to
// reproduce the measurement artifacts in the paper's §3: round-trip
// times that shift regime every 15 seconds when the global controller
// reassigns satellites, parallel latency bands inside a slot from the
// on-satellite MAC frame ring, and loss spikes around handovers.
//
// The model is a delay oracle: given a wall-clock instant it answers
// "what RTT would a probe sent now observe". The irtt package uses it
// to inject delays under real UDP probes; the trace generator here
// samples it directly at the paper's 1 packet / 20 ms cadence.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scheduler"
	"repro/internal/units"
)

// Sample is one probe observation.
type Sample struct {
	T     time.Time
	RTTms float64
	Lost  bool
	// SatID is the satellite serving the terminal when the probe was
	// sent (ground truth, for validation only).
	SatID int
}

// Config assembles a path model for one terminal.
type Config struct {
	Constellation *constellation.Constellation
	Scheduler     *scheduler.Global
	Terminal      scheduler.Terminal
	// JitterStdMs is the per-packet Gaussian jitter. Default 0.4 ms.
	JitterStdMs float64
	// LossProb is the steady-state packet loss probability. Default
	// 0.005.
	LossProb float64
	// HandoverLossProb is the loss probability during the first
	// 300 ms (handoverWindow) after a slot boundary. Default 0.08.
	HandoverLossProb float64
	// CoTerminalsMin/Max bound how many other terminals share the
	// serving satellite's MAC ring in a slot (drives the band count).
	// Defaults 4 and 12.
	CoTerminalsMin, CoTerminalsMax int
	// Seed drives jitter, loss, and co-terminal draws.
	Seed int64
}

// baseDelayMs is the fixed processing + backbone overhead added to
// every RTT: the typical Starlink floor after removing propagation.
const baseDelayMs = 12

// handoverWindow is how long the elevated loss after a slot boundary
// lasts.
const handoverWindow = 300 * time.Millisecond

func (c *Config) applyDefaults() error {
	if c.Constellation == nil {
		return fmt.Errorf("netsim: nil constellation")
	}
	if c.Scheduler == nil {
		return fmt.Errorf("netsim: nil scheduler")
	}
	if c.JitterStdMs == 0 {
		c.JitterStdMs = 0.4
	}
	if c.LossProb == 0 {
		c.LossProb = 0.005
	}
	if c.HandoverLossProb == 0 {
		c.HandoverLossProb = 0.08
	}
	if c.CoTerminalsMin == 0 {
		c.CoTerminalsMin = 4
	}
	if c.CoTerminalsMax == 0 {
		c.CoTerminalsMax = 12
	}
	if c.CoTerminalsMax < c.CoTerminalsMin {
		return fmt.Errorf("netsim: co-terminal range [%d,%d] inverted", c.CoTerminalsMin, c.CoTerminalsMax)
	}
	return nil
}

// Path is the delay oracle for one terminal.
type Path struct {
	cfg Config
	pop geo.PoP // the terminal's home PoP
	rng *rand.Rand

	// Per-slot cache; allocs is the scheduler's last slot of
	// allocations, its array reused the next slot.
	slot      int64
	slotAlloc scheduler.Allocation
	slotMAC   *scheduler.MAC
	allocs    []scheduler.Allocation
}

// NewPath builds the oracle.
func NewPath(cfg Config) (*Path, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	pop, ok := geo.PoPByName(cfg.Terminal.PoP)
	if !ok {
		return nil, fmt.Errorf("netsim: terminal %q homes to unknown PoP %q", cfg.Terminal.Name, cfg.Terminal.PoP)
	}
	return &Path{cfg: cfg, pop: pop, rng: rand.New(rand.NewSource(cfg.Seed)), slot: -1}, nil
}

// refreshSlot advances the cached allocation to the slot containing t.
// Slots must be visited in non-decreasing order (the scheduler's load
// walk is sequential); the trace generator guarantees that.
func (p *Path) refreshSlot(t time.Time) {
	slot := scheduler.SlotIndex(t)
	if slot == p.slot {
		return
	}
	p.slot = slot
	p.slotAlloc = scheduler.Allocation{}
	p.allocs = p.cfg.Scheduler.AppendAllocate(p.allocs[:0], t)
	for _, a := range p.allocs {
		if a.Terminal == p.cfg.Terminal.Name {
			p.slotAlloc = a
			break
		}
	}
	// Rebuild the MAC ring: our terminal plus a random number of
	// co-scheduled terminals on the same satellite.
	n := p.cfg.CoTerminalsMin
	if p.cfg.CoTerminalsMax > p.cfg.CoTerminalsMin {
		n += p.rng.Intn(p.cfg.CoTerminalsMax - p.cfg.CoTerminalsMin + 1)
	}
	terms := make([]scheduler.Terminal, 0, n+1)
	terms = append(terms, p.cfg.Terminal)
	for i := 0; i < n; i++ {
		terms = append(terms, scheduler.Terminal{
			VantagePoint: geo.VantagePoint{Name: fmt.Sprintf("co-%d", i)},
		})
	}
	p.slotMAC = scheduler.NewMAC(terms)
}

// Probe returns the RTT a probe sent at t would measure and whether it
// is lost. Returns an error when no satellite serves the terminal.
func (p *Path) Probe(t time.Time) (Sample, error) {
	p.refreshSlot(t)
	s := Sample{T: t, SatID: p.slotAlloc.SatID}
	if p.slotAlloc.SatID == 0 {
		return s, fmt.Errorf("netsim: no satellite allocated to %q in slot %v", p.cfg.Terminal.Name, scheduler.EpochStart(t))
	}

	// Loss: elevated immediately after a handover.
	lossP := p.cfg.LossProb
	if t.Sub(p.slotAlloc.SlotStart) < handoverWindow {
		lossP = p.cfg.HandoverLossProb
	}
	if p.rng.Float64() < lossP {
		s.Lost = true
		return s, nil
	}

	sat := p.cfg.Constellation.ByID(p.slotAlloc.SatID)
	st, err := sat.Propagator.PropagateAt(t)
	if err != nil {
		return s, fmt.Errorf("netsim: propagate %d: %w", sat.ID, err)
	}
	satECEF := astro.FrameAt(t).ToECEF(st.Pos)

	upKm := satECEF.Sub(p.cfg.Terminal.Location.ToECEF()).Norm()
	downKm := satECEF.Sub(p.pop.Location.ToECEF()).Norm()
	propMs := 2 * (upKm + downKm) / units.SpeedOfLightKmPerSec * 1000

	macMs := float64(p.slotMAC.FrameDelay(p.cfg.Terminal.Name, t)) / float64(time.Millisecond)
	jitter := p.rng.NormFloat64() * p.cfg.JitterStdMs

	s.RTTms = propMs + macMs + 2*p.pop.WiredDelayMs + baseDelayMs + jitter
	if s.RTTms < 0 {
		s.RTTms = 0
	}
	return s, nil
}

// Trace samples the path at the given cadence over [start, start+dur).
// Slots with no allocated satellite yield lost samples rather than an
// error, matching how a real probe stream observes outages.
func (p *Path) Trace(start time.Time, dur, interval time.Duration) ([]Sample, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("netsim: non-positive probe interval %v", interval)
	}
	n := int(dur / interval)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		t := start.Add(time.Duration(i) * interval)
		s, err := p.Probe(t)
		if err != nil {
			s = Sample{T: t, Lost: true}
		}
		out = append(out, s)
	}
	return out, nil
}

// SplitBySlot groups samples into their 15-second allocation windows,
// ordered by slot start — the partition the Mann-Whitney analysis
// runs over.
func SplitBySlot(samples []Sample) [][]Sample {
	var out [][]Sample
	var cur []Sample
	var curSlot int64 = -1 << 62
	for _, s := range samples {
		slot := scheduler.SlotIndex(s.T)
		if slot != curSlot {
			if len(cur) > 0 {
				out = append(out, cur)
			}
			cur = nil
			curSlot = slot
		}
		cur = append(cur, s)
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// RTTs extracts the delivered (non-lost) RTT values.
func RTTs(samples []Sample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.Lost {
			out = append(out, s.RTTms)
		}
	}
	return out
}
