// Package scheduler implements the ground-truth traffic controllers
// this reproduction studies from the outside: the global controller
// that re-allocates satellites to user terminals every 15 seconds, and
// the on-satellite medium-access-control (MAC) scheduler that hands
// radio frames to the terminals attached to a satellite.
//
// The global controller follows the structure SpaceX's FCC filings
// describe — a periodic, globally synchronized allocation considering
// geometry, power, and load — with the specific preferences the paper
// infers in §5: high angle of elevation, the GSO exclusion zone,
// launch recency, and sunlit state. The measurement and inference
// pipeline in internal/core treats this package as a black box: it
// never reads the weights, only the externally observable allocations.
package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Epoch grid. Allocations change every 15 s at fixed offsets past the
// minute (:12, :27, :42, :57), which is exactly the signature the
// paper's Figure 2 shows.
const (
	// Period is the global reallocation interval.
	Period = 15 * time.Second
	// EpochOffset is the phase of the allocation grid within a minute.
	EpochOffset = 12 * time.Second
)

// EpochStart returns the start of the 15-second allocation slot
// containing t.
func EpochStart(t time.Time) time.Time {
	t = t.UTC()
	base := t.Truncate(time.Minute).Add(EpochOffset - time.Minute)
	// base is :12 of the previous minute; advance in 15 s steps.
	elapsed := t.Sub(base)
	slots := elapsed / Period
	return base.Add(slots * Period)
}

// SlotIndex numbers a slot by its start time (seconds since Unix epoch
// / 15); useful as a map key.
func SlotIndex(t time.Time) int64 {
	return EpochStart(t).Unix() / int64(Period/time.Second)
}

// DefaultMinElevationDeg is the hardware visibility mask a zero
// Config.MinElevationDeg selects.
const DefaultMinElevationDeg = 25.0

// Terminal is a scheduled user terminal.
type Terminal struct {
	geo.VantagePoint
}

// Allocation is one terminal's assignment for one 15-second slot.
type Allocation struct {
	Terminal  string
	SlotStart time.Time
	SatID     int // 0 when no satellite was eligible
	// Observables of the chosen satellite at slot start.
	ElevationDeg float64
	AzimuthDeg   float64
	Sunlit       bool
}

// Weights are the global controller's scoring preferences. The
// defaults produce the qualitative behaviour the paper measured; the
// inference pipeline must recover these tendencies without reading
// them.
type Weights struct {
	Elevation float64 // reward per normalized elevation (0 at 25 deg mask, 1 at zenith)
	// GSOClearance rewards angular separation from the geostationary
	// belt (normalized by 90 deg). At latitudes above ~40N the belt
	// sits in the southern sky, so this term produces the northern
	// azimuth skew the paper measured — and mirrors it for southern
	// terminals, per the paper's §8 generalization argument.
	GSOClearance float64
	Recency      float64 // reward per normalized launch recency (0 oldest, 1 newest)
	Sunlit       float64 // additive reward when the satellite is in sunlight
	Load         float64 // penalty per normalized background load (0..1)
	// Charge penalizes depleted batteries: the paper's §5.3 rationale
	// ("dark satellites have limited battery"). Power-constrained
	// satellites (at the protection floor) are excluded outright.
	Charge   float64
	NoiseStd float64 // std-dev of the unobservable score noise
}

// DefaultWeights yields scheduler behaviour matching the paper's
// measured preferences (§5): elevation dominates, the north bias and
// sunlit preference are strong, launch recency is a mild tiebreaker,
// and the hidden load term bounds how predictable the choice is from
// public data alone.
func DefaultWeights() Weights {
	return Weights{
		Elevation:    3.0,
		GSOClearance: 1.6,
		Recency:      0.35,
		Sunlit:       2.8,
		Load:         1.0,
		Charge:       0.6,
		NoiseStd:     0.35,
	}
}

// Config assembles a Global controller.
type Config struct {
	Constellation *constellation.Constellation
	Terminals     []Terminal
	Weights       Weights // zero value => DefaultWeights
	// MinElevationDeg is the hardware visibility mask. Default
	// DefaultMinElevationDeg.
	MinElevationDeg float64
	// GSOProtectionDeg is the exclusion half-angle. Default
	// geo.DefaultGSOProtectionDeg. Negative disables the exclusion
	// (ablation).
	GSOProtectionDeg float64
	// Battery overrides the satellite energy model; nil uses
	// power.DefaultBatteryConfig. DisableBattery removes the energy
	// model entirely (ablation).
	Battery        *power.BatteryConfig
	DisableBattery bool
	// GroundStations are the gateway sites for the bent-pipe
	// constraint: a satellite can serve a terminal only while it also
	// sees a ground station above GSMinElevationDeg. Nil uses the
	// study PoPs' co-located ground stations; an explicit empty,
	// non-nil slice disables the constraint (ablation).
	GroundStations []astro.Geodetic
	// GSMinElevationDeg is the gateway visibility mask. Default 25.
	GSMinElevationDeg float64
	// Seed drives load evolution and score noise.
	Seed int64
	// Telemetry, when non-nil, receives allocation counters (see
	// Metrics). Observational only; allocations are unaffected.
	Telemetry *telemetry.Registry
	// Snapshots shares propagated snapshots (and their spatial indexes)
	// with other consumers of the same constellation — pass the campaign
	// engine's cache so each slot propagates once globally. Nil creates
	// a private cache.
	Snapshots *constellation.SnapshotCache
	// DisableIndex forces the linear visibility scan instead of the
	// spatial index (ablation / equivalence testing). Results are
	// identical either way; only the cost changes.
	DisableIndex bool
}

// Global is the ground-truth global controller.
type Global struct {
	cons    *constellation.Constellation
	terms   []Terminal
	w       Weights
	minElev float64
	gso     map[string]*geo.GSOExclusion // per terminal
	noGSO   bool
	rng     *rand.Rand
	snaps   *constellation.SnapshotCache
	noIndex bool

	// Per-satellite state is dense, indexed by constellation position
	// (constellation.Satellite.Pos) and reused across slots.
	//
	// load is hidden background utilization in [0,1], re-drawn
	// smoothly each slot. It is intentionally unobservable to the
	// inference pipeline (the paper §6 "Limitations").
	load      []float64
	loadOrder []int // positions in ascending-ID order: the RNG draw order

	// fleet is the hidden satellite energy state (nil when the battery
	// model is disabled), stepped with each slot's sunlit states.
	fleet *power.Fleet

	// Bent-pipe constraint: a candidate must be seen by one of the
	// gateways (none: the constraint is off). A satellite's eligibility
	// is decided on its first candidacy in a slot and kept for the
	// slot's other terminals: gwSees[p] holds it for slot gwSlot[p].
	gateways  []astro.Observer
	gsMinElev float64
	gwSlot    []int64
	gwSees    []bool

	// slot is the slot the state above was last advanced to (-1 before
	// the first).
	slot int64

	// launch window bounds for recency normalization.
	oldest, newest time.Time

	// Allocate-only scratch for the per-terminal candidate sweep.
	// Allocate is serial by contract (stateful load walk / RNG), so one
	// buffer pair suffices; a caller whose result escapes must not use
	// it.
	fovScratch  []constellation.Visible
	candScratch []Candidate

	// metrics is nil when telemetry is disabled.
	metrics *Metrics
}

// NewGlobal builds the controller.
func NewGlobal(cfg Config) (*Global, error) {
	if cfg.Constellation == nil {
		return nil, fmt.Errorf("scheduler: nil constellation")
	}
	if len(cfg.Terminals) == 0 {
		return nil, fmt.Errorf("scheduler: no terminals")
	}
	w := cfg.Weights
	if w == (Weights{}) {
		w = DefaultWeights()
	}
	minElev := cfg.MinElevationDeg
	if minElev == 0 {
		minElev = DefaultMinElevationDeg
	}
	g := &Global{
		cons:    cfg.Constellation,
		terms:   append([]Terminal(nil), cfg.Terminals...),
		w:       w,
		minElev: minElev,
		gso:     make(map[string]*geo.GSOExclusion, len(cfg.Terminals)),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		metrics: NewMetrics(cfg.Telemetry),
		snaps:   cfg.Snapshots,
		noIndex: cfg.DisableIndex,
	}
	if g.snaps == nil {
		g.snaps = constellation.NewSnapshotCache(0, cfg.Telemetry)
	}
	switch {
	case cfg.GSOProtectionDeg < 0:
		g.noGSO = true
	default:
		for _, t := range cfg.Terminals {
			g.gso[t.Name] = geo.NewGSOExclusion(t.Location, cfg.GSOProtectionDeg)
		}
	}
	sats := cfg.Constellation.Sats
	g.load = make([]float64, len(sats))
	g.loadOrder = make([]int, len(sats))
	ids := make([]int, len(sats))
	for i, s := range sats {
		g.load[i] = g.rng.Float64() * 0.5
		g.loadOrder[i] = i
		ids[i] = s.ID
		if s.Launch.Before(g.oldest) || g.oldest.IsZero() {
			g.oldest = s.Launch
		}
		if s.Launch.After(g.newest) {
			g.newest = s.Launch
		}
	}
	slices.SortFunc(g.loadOrder, func(a, b int) int { return ids[a] - ids[b] })
	if !cfg.DisableBattery {
		bcfg := power.DefaultBatteryConfig()
		if cfg.Battery != nil {
			bcfg = *cfg.Battery
		}
		fleet, err := power.NewFleet(ids, bcfg)
		if err != nil {
			return nil, fmt.Errorf("scheduler: battery fleet: %w", err)
		}
		g.fleet = fleet
	}
	g.slot = -1
	gs := cfg.GroundStations
	if gs == nil {
		for _, p := range geo.StudyPoPs() {
			gs = append(gs, p.Location)
		}
	}
	for _, site := range gs {
		g.gateways = append(g.gateways, astro.NewObserver(site))
	}
	if len(g.gateways) > 0 {
		g.gwSlot = make([]int64, len(sats))
		for i := range g.gwSlot {
			g.gwSlot[i] = math.MinInt64
		}
		g.gwSees = make([]bool, len(sats))
	}
	g.gsMinElev = cfg.GSMinElevationDeg
	if g.gsMinElev == 0 {
		g.gsMinElev = 25
	}
	return g, nil
}

// Terminals returns the scheduled terminals.
func (g *Global) Terminals() []Terminal { return g.terms }

// advance moves the hidden per-satellite state to the given slot: the
// load walk, then the battery fleet from the slot's sunlit states.
// Every caller reaches a slot through here, so whichever comes first
// steps all of it exactly once.
func (g *Global) advance(slot int64, shared *constellation.SharedSnapshot) {
	if slot == g.slot {
		return
	}
	steps := slot - g.slot
	if g.slot < 0 || steps < 0 || steps > 240 {
		steps = 1 // (re)initialize with a single step
	}
	g.slot = slot
	// Loads evolve smoothly so consecutive slots are correlated, like
	// real utilization.
	for i := int64(0); i < steps; i++ {
		for _, p := range g.loadOrder {
			v := g.load[p] + g.rng.NormFloat64()*0.05
			g.load[p] = units.Clamp(v, 0, 1)
		}
	}
	if g.fleet != nil {
		g.fleet.Step(Period, shared.Sunlit, g.load)
	}
}

// Candidate is one eligible satellite with its observables and the
// score the controller assigned. Scores are exposed for tests and
// ablations; the inference pipeline must not use them.
type Candidate struct {
	Sat    *constellation.Satellite
	Look   struct{ ElevationDeg, AzimuthDeg, RangeKm float64 }
	Sunlit bool
	Score  float64
}

// Allocate returns AppendAllocate(nil, t): every terminal's
// assignment for the slot containing t, in a new slice.
func (g *Global) Allocate(t time.Time) []Allocation {
	return g.AppendAllocate(nil, t)
}

// AppendAllocate appends every terminal's assignment for the slot
// containing t to dst, one per terminal in Terminals() order, and
// returns the extended slice; a caller that passes its previous
// result[:0] allocates nothing. Results are deterministic given the
// seed and call sequence: callers should allocate once per slot in
// order (the load walk advances per slot).
func (g *Global) AppendAllocate(dst []Allocation, t time.Time) []Allocation {
	slotStart := EpochStart(t)
	shared := g.snaps.Acquire(g.cons, slotStart)
	defer shared.Release()
	g.advance(SlotIndex(t), shared)

	out := slices.Grow(dst, len(g.terms))
	for _, term := range g.terms {
		var cands []Candidate
		g.fovScratch, cands = g.appendCandidates(g.fovScratch, g.candScratch[:0], term, shared)
		g.candScratch = cands
		alloc := Allocation{Terminal: term.Name, SlotStart: slotStart}
		g.metrics.observe(len(cands), len(cands) > 0)
		if len(cands) > 0 {
			best := cands[0]
			for _, c := range cands[1:] {
				// Explicit tie-break: lowest satellite ID wins, so the
				// pick is a total order independent of enumeration order.
				if c.Score > best.Score ||
					(c.Score == best.Score && c.Sat.ID < best.Sat.ID) {
					best = c
				}
			}
			alloc.SatID = best.Sat.ID
			alloc.ElevationDeg = best.Look.ElevationDeg
			alloc.AzimuthDeg = best.Look.AzimuthDeg
			alloc.Sunlit = best.Sunlit
		}
		out = append(out, alloc)
	}
	return out
}

// seesGateway reports whether some gateway sees the satellite at
// position pos, at ecef in the current slot, at or above the gateway
// mask (bent-pipe eligibility). The gateways are walked once per
// satellite and slot.
func (g *Global) seesGateway(pos int, ecef units.Vec3) bool {
	if g.gwSlot[pos] == g.slot {
		return g.gwSees[pos]
	}
	sees := false
	for i := range g.gateways {
		if g.gateways[i].Observe(ecef).ElevationDeg >= g.gsMinElev {
			sees = true
			break
		}
	}
	g.gwSlot[pos], g.gwSees[pos] = g.slot, sees
	return sees
}

// appendCandidates computes the eligible, scored satellites for one
// terminal, appending into cands and sweeping the field of view
// through fovBuf (both may be nil). It returns the (possibly regrown)
// fov buffer for the caller to retain alongside the candidate slice.
// The eligibility walk and RNG consumption order are identical
// whatever buffers are passed, so scores are bit-identical.
func (g *Global) appendCandidates(fovBuf []constellation.Visible, cands []Candidate,
	term Terminal, shared *constellation.SharedSnapshot) ([]constellation.Visible, []Candidate) {
	fov := shared.AppendObserveFrom(fovBuf[:0], term.Location, g.minElev, g.noIndex)
	recencyDen := g.newest.Sub(g.oldest).Hours()
	if recencyDen <= 0 {
		recencyDen = 1
	}
	var gso *geo.GSOExclusion
	if !g.noGSO {
		gso = g.gso[term.Name]
	}
	for _, v := range fov {
		pos := v.Sat.Pos()
		if len(g.gateways) > 0 && !g.seesGateway(pos, v.ECEF) {
			continue // bent-pipe: no gateway in view
		}
		if term.Mask.Blocked(v.Look.AzimuthDeg, v.Look.ElevationDeg) {
			continue
		}
		// One belt walk serves both the exclusion test (separation
		// below the protection angle) and the clearance term below.
		sep := math.Inf(1)
		if gso != nil {
			sep = gso.MinSeparationDeg(v.Look.AzimuthDeg, v.Look.ElevationDeg)
			if sep < gso.ProtectionDeg() {
				continue
			}
		}
		c := Candidate{Sat: v.Sat, Sunlit: v.Sunlit}
		c.Look.ElevationDeg = v.Look.ElevationDeg
		c.Look.AzimuthDeg = v.Look.AzimuthDeg
		c.Look.RangeKm = v.Look.RangeKm

		elevNorm := (v.Look.ElevationDeg - g.minElev) / (90 - g.minElev)
		// Interference margin from the GSO belt. For >40N terminals the
		// belt is due south, so clearance grows toward the north — the
		// mechanism behind the paper's Figure 5 skew.
		clearance := 0.0
		if !math.IsInf(sep, 1) {
			clearance = units.Clamp(sep/90, 0, 1)
		}
		recency := v.Sat.Launch.Sub(g.oldest).Hours() / recencyDen
		sunlit := 0.0
		if v.Sunlit {
			sunlit = 1
		}
		if g.fleet != nil && g.fleet.Constrained(pos) {
			continue // battery at the protection floor: ineligible
		}
		charge := 1.0
		if g.fleet != nil {
			charge = g.fleet.SoC(pos)
		}
		c.Score = g.w.Elevation*elevNorm +
			g.w.GSOClearance*clearance +
			g.w.Recency*recency +
			g.w.Sunlit*sunlit -
			g.w.Load*g.load[pos] -
			g.w.Charge*(1-charge) +
			g.rng.NormFloat64()*g.w.NoiseStd
		cands = append(cands, c)
	}
	return fov, cands
}

// MAC is the on-satellite medium access control scheduler: terminals
// attached to a satellite receive radio frames round-robin, one frame
// each per cycle (§3). The visible artifact — which the paper's
// Figure 2 shows as parallel RTT bands a few milliseconds apart — is
// that a packet waits for its terminal's next frame, so queueing delay
// cycles deterministically through the frame ring.
type MAC struct {
	ring   []string       // terminal name per frame, in name order
	slotOf map[string]int // each terminal's frame in the ring
}

// DefaultFrameDuration mirrors Starlink's published ~1.33 ms frame.
const DefaultFrameDuration = 4 * time.Millisecond / 3

// NewMAC builds the frame ring for a satellite's attached terminals:
// one DefaultFrameDuration frame per terminal, ordered by name so the
// assignment is deterministic.
func NewMAC(terminals []Terminal) *MAC {
	m := &MAC{ring: make([]string, len(terminals)), slotOf: make(map[string]int, len(terminals))}
	for i, t := range terminals {
		m.ring[i] = t.Name
	}
	sort.Strings(m.ring)
	for i, name := range m.ring {
		m.slotOf[name] = i
	}
	return m
}

// FrameDelay returns how long a packet arriving at the satellite at
// time t waits until the owning terminal's next frame. The satellite
// cycles through the ring continuously.
func (m *MAC) FrameDelay(terminal string, t time.Time) time.Duration {
	slot, ok := m.slotOf[terminal]
	if !ok {
		return 0
	}
	span := time.Duration(len(m.ring)) * DefaultFrameDuration
	wait := time.Duration(slot)*DefaultFrameDuration - time.Duration(t.UnixNano())%span
	if wait < 0 {
		wait += span
	}
	return wait
}

// Fleet exposes the satellite energy model for telemetry and tests
// (nil when disabled). The inference pipeline must not read it — like
// load, battery state is unobservable from the ground.
func (g *Global) Fleet() *power.Fleet { return g.fleet }
