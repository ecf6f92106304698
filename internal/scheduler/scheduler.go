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

// NextEpoch returns the first slot boundary strictly after t.
func NextEpoch(t time.Time) time.Time {
	return EpochStart(t).Add(Period)
}

// SlotIndex numbers a slot by its start time (seconds since Unix epoch
// / 15); useful as a map key.
func SlotIndex(t time.Time) int64 {
	return EpochStart(t).Unix() / int64(Period/time.Second)
}

// Terminal is a scheduled user terminal.
type Terminal struct {
	geo.VantagePoint
	// Priority weights MAC frame allocation (1 = standard user).
	Priority int
}

// Allocation is one terminal's assignment for one 15-second slot.
type Allocation struct {
	Terminal  string
	SlotStart time.Time
	SatID     int // 0 when no satellite was eligible
	// Observables of the chosen satellite at slot start.
	ElevationDeg float64
	AzimuthDeg   float64
	RangeKm      float64
	Sunlit       bool
	LaunchDate   time.Time
	// Candidates is the number of eligible satellites considered.
	Candidates int
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
	// MinElevationDeg is the hardware visibility mask. Default 25.
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

	// load is hidden per-satellite background utilization in [0,1],
	// re-drawn smoothly each slot. It is intentionally unobservable to
	// the inference pipeline (the paper §6 "Limitations").
	load     map[int]float64
	loadIDs  []int // sorted, for deterministic RNG consumption
	loadSlot int64

	// fleet is the hidden satellite energy state (nil when the battery
	// model is disabled).
	fleet *power.Fleet

	// Bent-pipe constraint state.
	groundStations []astro.Geodetic
	gsMinElev      float64
	gsVisible      map[int]bool // per-slot cache
	gsSlot         int64

	// launch window bounds for recency normalization.
	oldest, newest time.Time

	// Allocate-only scratch for the per-terminal candidate sweep.
	// Allocate is serial by contract (stateful load walk / RNG), so one
	// buffer pair suffices; CandidatesAt must NOT use it — its result
	// escapes to the caller.
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
		minElev = 25
	}
	g := &Global{
		cons:    cfg.Constellation,
		terms:   append([]Terminal(nil), cfg.Terminals...),
		w:       w,
		minElev: minElev,
		gso:     make(map[string]*geo.GSOExclusion, len(cfg.Terminals)),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		load:    make(map[int]float64, cfg.Constellation.Len()),
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
	for _, s := range cfg.Constellation.Sats {
		g.load[s.ID] = g.rng.Float64() * 0.5
		g.loadIDs = append(g.loadIDs, s.ID)
		if s.Launch.Before(g.oldest) || g.oldest.IsZero() {
			g.oldest = s.Launch
		}
		if s.Launch.After(g.newest) {
			g.newest = s.Launch
		}
	}
	sort.Ints(g.loadIDs)
	if !cfg.DisableBattery {
		bcfg := power.DefaultBatteryConfig()
		if cfg.Battery != nil {
			bcfg = *cfg.Battery
		}
		fleet, err := power.NewFleet(g.loadIDs, bcfg)
		if err != nil {
			return nil, fmt.Errorf("scheduler: battery fleet: %w", err)
		}
		g.fleet = fleet
	}
	g.loadSlot = -1
	g.gsSlot = -1
	if cfg.GroundStations == nil {
		for _, p := range geo.StudyPoPs() {
			g.groundStations = append(g.groundStations, p.Location)
		}
	} else {
		g.groundStations = append(g.groundStations, cfg.GroundStations...)
	}
	g.gsMinElev = cfg.GSMinElevationDeg
	if g.gsMinElev == 0 {
		g.gsMinElev = 25
	}
	return g, nil
}

// Terminals returns the scheduled terminals.
func (g *Global) Terminals() []Terminal { return g.terms }

// stepLoad advances the hidden load random walk to the given slot.
// Loads evolve smoothly so consecutive slots are correlated, like real
// utilization.
func (g *Global) stepLoad(slot int64) {
	if slot == g.loadSlot {
		return
	}
	steps := slot - g.loadSlot
	if g.loadSlot < 0 || steps < 0 || steps > 240 {
		steps = 1 // (re)initialize with a single step
	}
	for i := int64(0); i < steps; i++ {
		for _, id := range g.loadIDs {
			v := g.load[id] + g.rng.NormFloat64()*0.05
			g.load[id] = units.Clamp(v, 0, 1)
		}
	}
	g.loadSlot = slot
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

// Allocate computes every terminal's assignment for the slot
// containing t. Results are deterministic given the seed and call
// sequence: callers should invoke Allocate once per slot in order
// (the load walk advances per slot).
func (g *Global) Allocate(t time.Time) []Allocation {
	slotStart := EpochStart(t)
	advanced := SlotIndex(t) != g.loadSlot
	g.stepLoad(SlotIndex(t))
	shared := g.snaps.Acquire(g.cons, slotStart)
	defer shared.Release()
	snap := shared.States
	if g.fleet != nil && advanced {
		sunlit := make(map[int]bool, len(snap))
		for _, st := range snap {
			sunlit[st.Sat.ID] = st.Sunlit
		}
		g.fleet.Step(Period, sunlit, g.load)
	}
	g.refreshGSVisibility(SlotIndex(t), shared)

	out := make([]Allocation, 0, len(g.terms))
	for _, term := range g.terms {
		var cands []Candidate
		g.fovScratch, cands = g.appendCandidates(g.fovScratch, g.candScratch[:0], term, shared)
		g.candScratch = cands
		alloc := Allocation{Terminal: term.Name, SlotStart: slotStart, Candidates: len(cands)}
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
			alloc.RangeKm = best.Look.RangeKm
			alloc.Sunlit = best.Sunlit
			alloc.LaunchDate = best.Sat.Launch
		}
		out = append(out, alloc)
	}
	return out
}

// refreshGSVisibility recomputes which satellites currently see a
// ground station (bent-pipe eligibility), once per slot.
func (g *Global) refreshGSVisibility(slot int64, shared *constellation.SharedSnapshot) {
	if slot == g.gsSlot {
		return
	}
	g.gsSlot = slot
	if len(g.groundStations) == 0 {
		g.gsVisible = nil // constraint disabled
		return
	}
	snap := shared.States
	g.gsVisible = make(map[int]bool, len(snap))
	if !g.noIndex {
		// Set semantics make per-gateway index queries equivalent to the
		// satellite-outer scan: a satellite is marked iff some gateway
		// sees it above the mask.
		ix := shared.Index()
		for _, gs := range g.groundStations {
			ix.MarkVisibleIDs(gs, g.gsMinElev, g.gsVisible)
		}
		return
	}
	observers := make([]astro.Observer, len(g.groundStations))
	for i, gs := range g.groundStations {
		observers[i] = astro.NewObserver(gs)
	}
	for _, st := range snap {
		for i := range observers {
			if observers[i].Observe(st.ECEF).ElevationDeg >= g.gsMinElev {
				g.gsVisible[st.Sat.ID] = true
				break
			}
		}
	}
}

// appendCandidates computes the eligible, scored satellites for one
// terminal, appending into cands and sweeping the field of view
// through fovBuf (both may be nil). It returns the (possibly regrown)
// fov buffer for the caller to retain alongside the candidate slice.
// The eligibility walk and RNG consumption order are identical
// whatever buffers are passed, so scores are bit-identical.
func (g *Global) appendCandidates(fovBuf []constellation.Visible, cands []Candidate,
	term Terminal, shared *constellation.SharedSnapshot) ([]constellation.Visible, []Candidate) {
	var fov []constellation.Visible
	if g.noIndex {
		fov = constellation.AppendObserveFrom(fovBuf[:0], term.Location, shared.States, g.minElev)
	} else {
		fov = shared.Index().AppendObserveFrom(fovBuf[:0], term.Location, g.minElev)
	}
	recencyDen := g.newest.Sub(g.oldest).Hours()
	if recencyDen <= 0 {
		recencyDen = 1
	}
	var gso *geo.GSOExclusion
	if !g.noGSO {
		gso = g.gso[term.Name]
	}
	for _, v := range fov {
		if g.gsVisible != nil && !g.gsVisible[v.Sat.ID] {
			continue // bent-pipe: no gateway in view
		}
		if term.Mask.Blocked(v.Look.AzimuthDeg, v.Look.ElevationDeg) {
			continue
		}
		// One belt walk serves both the exclusion test (exactly
		// GSOExclusion.Excluded) and the clearance term below.
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
		if g.fleet != nil && g.fleet.Constrained(v.Sat.ID) {
			continue // battery at the protection floor: ineligible
		}
		charge := 1.0
		if g.fleet != nil {
			charge = g.fleet.SoC(v.Sat.ID)
		}
		c.Score = g.w.Elevation*elevNorm +
			g.w.GSOClearance*clearance +
			g.w.Recency*recency +
			g.w.Sunlit*sunlit -
			g.w.Load*g.load[v.Sat.ID] -
			g.w.Charge*(1-charge) +
			g.rng.NormFloat64()*g.w.NoiseStd
		cands = append(cands, c)
	}
	return fov, cands
}

// CandidatesAt exposes the scored candidate set for ablation tests.
// The returned slice is freshly allocated (it escapes to the caller),
// never the Allocate scratch.
func (g *Global) CandidatesAt(term Terminal, t time.Time) []Candidate {
	g.stepLoad(SlotIndex(t))
	shared := g.snaps.Acquire(g.cons, EpochStart(t))
	defer shared.Release()
	g.refreshGSVisibility(SlotIndex(t), shared)
	_, cands := g.appendCandidates(nil, nil, term, shared)
	return cands
}

// MAC is the on-satellite medium access control scheduler: terminals
// attached to a satellite receive radio frames round-robin, weighted
// by priority. The visible artifact — which the paper's Figure 2
// shows as parallel RTT bands a few milliseconds apart — is that a
// packet waits for its terminal's next frame, so queueing delay
// cycles deterministically through the frame ring.
type MAC struct {
	frame    time.Duration // one radio frame
	ring     []string      // terminal name per frame slot
	slotOf   map[string][]int
	ringSpan time.Duration
}

// DefaultFrameDuration mirrors Starlink's published ~1.33 ms frame.
const DefaultFrameDuration = 4 * time.Millisecond / 3

// NewMAC builds the frame ring for a satellite's attached terminals.
// A terminal with priority p receives p slots per cycle. Frame <= 0
// selects DefaultFrameDuration.
func NewMAC(frame time.Duration, terminals []Terminal) *MAC {
	if frame <= 0 {
		frame = DefaultFrameDuration
	}
	m := &MAC{frame: frame, slotOf: make(map[string][]int)}
	// Sort by name for deterministic slot assignment.
	ts := append([]Terminal(nil), terminals...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].Name < ts[j].Name })
	for _, t := range ts {
		p := t.Priority
		if p <= 0 {
			p = 1
		}
		for i := 0; i < p; i++ {
			m.slotOf[t.Name] = append(m.slotOf[t.Name], len(m.ring))
			m.ring = append(m.ring, t.Name)
		}
	}
	m.ringSpan = time.Duration(len(m.ring)) * frame
	return m
}

// FrameDelay returns how long a packet arriving at the satellite at
// time t waits until the owning terminal's next frame. The satellite
// cycles through the ring continuously.
func (m *MAC) FrameDelay(terminal string, t time.Time) time.Duration {
	slots := m.slotOf[terminal]
	if len(slots) == 0 || m.ringSpan == 0 {
		return 0
	}
	pos := time.Duration(t.UnixNano()) % m.ringSpan
	best := m.ringSpan
	for _, s := range slots {
		slotStart := time.Duration(s) * m.frame
		wait := slotStart - pos
		if wait < 0 {
			wait += m.ringSpan
		}
		if wait < best {
			best = wait
		}
	}
	return best
}

// RingSize returns the number of frame slots per cycle.
func (m *MAC) RingSize() int { return len(m.ring) }

// Bands returns the set of distinct frame-delay offsets (in
// milliseconds) a terminal can observe — the parallel latency bands of
// Figure 2.
func (m *MAC) Bands(terminal string) []float64 {
	slots := m.slotOf[terminal]
	if len(slots) == 0 {
		return nil
	}
	// A packet arriving uniformly at random waits anywhere in
	// [0, ringSpan); sampled at a fixed probing cadence the delays
	// cluster at multiples of the frame duration up to the gap between
	// owned slots. Report the per-slot offsets.
	out := make([]float64, 0, len(slots))
	for _, s := range slots {
		out = append(out, float64(time.Duration(s)*m.frame)/float64(time.Millisecond))
	}
	return out
}

// Fleet exposes the satellite energy model for telemetry and tests
// (nil when disabled). The inference pipeline must not read it — like
// load, battery state is unobservable from the ground.
func (g *Global) Fleet() *power.Fleet { return g.fleet }
