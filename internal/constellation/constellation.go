// Package constellation synthesizes a Starlink-like LEO constellation:
// Walker-delta shells matching the publicly filed Starlink shell
// design, satellites grouped into launch batches with realistic launch
// dates, and TLE generation so the rest of the system can treat the
// synthetic constellation exactly like a CelesTrak feed.
//
// This package substitutes for the live constellation the paper
// measured (see DESIGN.md §2): the geometry that drives every analysis
// — how many satellites are in view, their angle-of-elevation and
// azimuth distributions — is fixed by the shell design, which is
// public.
package constellation

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astro"
	"repro/internal/sgp4"
	"repro/internal/tle"
	"repro/internal/units"
)

// Geometry selects the Walker pattern a shell's planes follow.
type Geometry string

const (
	// WalkerDelta spreads the ascending nodes over the full 360°
	// (Starlink's inclined shells). The zero value selects it.
	WalkerDelta Geometry = "walker-delta"
	// WalkerStar spreads the ascending nodes over 180°, so planes
	// ascend on one side of the Earth and descend on the other
	// (OneWeb, Iridium, Kepler near-polar designs).
	WalkerStar Geometry = "walker-star"
)

// spreadDeg returns the RAAN span the shell's planes divide.
func (g Geometry) spreadDeg() (float64, error) {
	switch g {
	case "", WalkerDelta:
		return 360.0, nil
	case WalkerStar:
		return 180.0, nil
	}
	return 0, fmt.Errorf("unknown geometry %q (want %q or %q)", g, WalkerDelta, WalkerStar)
}

// Shell describes one Walker shell: a set of evenly spaced
// circular-orbit planes at a common altitude and inclination.
type Shell struct {
	Name           string
	AltitudeKm     float64
	InclinationDeg float64
	Planes         int
	SatsPerPlane   int
	// PhasingF is the Walker phasing parameter: the slot offset (in
	// units of 360/(Planes*SatsPerPlane) degrees) between adjacent
	// planes. Valid Walker range is 0..Planes-1.
	PhasingF int
	// Geometry selects delta (360° RAAN spread, the zero value) or
	// star (180° spread) plane layout.
	Geometry Geometry
}

// Physical altitude bounds for a sustainable orbit: below ~120 km
// drag deorbits within hours; beyond GEO+margin the "LEO shell" label
// stops making sense and the mean-motion model's assumptions with it.
const (
	MinShellAltitudeKm = 120.0
	MaxShellAltitudeKm = 50000.0
)

// Validate reports every problem with the shell's parameters joined
// into one error, or nil. New rejects invalid shells with the same
// checks; spec-driven callers (internal/scenario) use Validate
// directly to collect all errors before attempting a build.
func (sh Shell) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("shell %q: "+format, append([]any{sh.Name}, args...)...))
	}
	if sh.Planes <= 0 || sh.SatsPerPlane <= 0 {
		fail("non-positive geometry %dx%d", sh.Planes, sh.SatsPerPlane)
	}
	if sh.Planes > 0 && (sh.PhasingF < 0 || sh.PhasingF >= sh.Planes) {
		fail("phasing F=%d outside valid Walker range 0..%d", sh.PhasingF, sh.Planes-1)
	}
	if sh.AltitudeKm < MinShellAltitudeKm || sh.AltitudeKm > MaxShellAltitudeKm {
		fail("non-physical altitude %.1f km (want %.0f..%.0f)", sh.AltitudeKm, MinShellAltitudeKm, MaxShellAltitudeKm)
	}
	if sh.InclinationDeg < 0 || sh.InclinationDeg > 180 {
		fail("inclination %.2f° outside 0..180", sh.InclinationDeg)
	}
	if _, err := sh.Geometry.spreadDeg(); err != nil {
		fail("%v", err)
	}
	return joinErrs(errs)
}

// joinErrs flattens a collected error list to nil / single / joined.
func joinErrs(errs []error) error {
	switch len(errs) {
	case 0:
		return nil
	case 1:
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:] {
		msg += "; " + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

// StarlinkShells returns the four first-generation Starlink shells as
// filed with the FCC (counts rounded to the operational design).
func StarlinkShells() []Shell {
	return []Shell{
		{Name: "shell1", AltitudeKm: 550, InclinationDeg: 53.0, Planes: 72, SatsPerPlane: 22, PhasingF: 17},
		{Name: "shell2", AltitudeKm: 540, InclinationDeg: 53.2, Planes: 72, SatsPerPlane: 22, PhasingF: 17},
		{Name: "shell3", AltitudeKm: 570, InclinationDeg: 70.0, Planes: 36, SatsPerPlane: 20, PhasingF: 11},
		{Name: "shell4", AltitudeKm: 560, InclinationDeg: 97.6, Planes: 6, SatsPerPlane: 58, PhasingF: 1},
	}
}

// OneWebShells returns the OneWeb first-generation design: an 18×36
// Walker-star at 1200 km / 86.4° (648 satellites).
func OneWebShells() []Shell {
	return []Shell{
		{Name: "oneweb", AltitudeKm: 1200, InclinationDeg: 86.4, Planes: 18, SatsPerPlane: 36, PhasingF: 1, Geometry: WalkerStar},
	}
}

// IridiumNextShells returns the Iridium NEXT design: a 6×11
// Walker-star at 780 km / 86.4° (66 satellites).
func IridiumNextShells() []Shell {
	return []Shell{
		{Name: "iridium-next", AltitudeKm: 780, InclinationDeg: 86.4, Planes: 6, SatsPerPlane: 11, PhasingF: 1, Geometry: WalkerStar},
	}
}

// KeplerShells returns the Kepler design: a 7×20 Walker-star at
// 600 km / 98.6° (140 satellites).
func KeplerShells() []Shell {
	return []Shell{
		{Name: "kepler", AltitudeKm: 600, InclinationDeg: 98.6, Planes: 7, SatsPerPlane: 20, PhasingF: 1, Geometry: WalkerStar},
	}
}

// Satellite is one member of the constellation with identity and
// launch metadata alongside its propagator.
type Satellite struct {
	ID         int       // NORAD-style catalog number (unique)
	Name       string    // e.g. "STARLINK-1234"
	Shell      string    // shell name
	Launch     time.Time // launch date (start of the batch's month)
	LaunchIdx  int       // index of the launch batch, 0 = oldest
	TLE        *tle.TLE
	Propagator sgp4.Ephemeris

	pos int // index in the owning Constellation's Sats (see Pos)
}

// Pos returns the satellite's index in its constellation's Sats, the
// key dense per-satellite state (the scheduler's hidden load, the
// battery fleet) is kept under. The constellation assigns it once:
// New does, and a hand-built Constellation does on its first
// snapshot, which is where every consumer of that state meets the
// satellite. Constellations with equal fingerprints list the same
// satellites in the same order, so their positions agree too.
func (s *Satellite) Pos() int { return s.pos }

// AgeYears returns the satellite age in years at time t.
func (s *Satellite) AgeYears(t time.Time) float64 {
	return t.Sub(s.Launch).Hours() / (24 * 365.25)
}

// Constellation is the full set of satellites plus lookup indices.
type Constellation struct {
	Sats  []*Satellite
	byID  map[int]*Satellite
	Epoch time.Time // TLE epoch shared by all satellites

	// Fingerprint cache (see Fingerprint).
	fpOnce sync.Once
	fp     uint64

	posOnce sync.Once // see assignPositions

	// Propagation-skip accounting (see PropagationSkips).
	// Touched only on the failure path, so healthy constellations never
	// contend on the mutex.
	skipMu    sync.Mutex
	skipTotal int64
	skipBySat map[int]string
}

// Config controls constellation synthesis.
type Config struct {
	Shells []Shell   // shells to build; default StarlinkShells()
	Epoch  time.Time // TLE epoch; default 2023-03-01
	// Seed drives the small random perturbations applied to mean
	// anomaly and RAAN so planes are not perfectly regular.
	Seed int64
	// JitterDeg is the 1-sigma perturbation in degrees. Default 0.15.
	JitterDeg float64
	// UseKeplerJ2 selects the ablation propagator instead of SGP4.
	UseKeplerJ2 bool
	// NamePrefix names satellites "<prefix>-<n>". Default "STARLINK",
	// matching the CelesTrak catalog names the paper's tooling keys on.
	NamePrefix string
}

// The synthetic launch history: batches of launchBatchSize satellites
// (a Falcon 9 Starlink launch carries about 60) dated monthly from
// launchStart to launchEnd, and catalog numbers counted up from
// firstCatalogNum, the first Starlink v1.0 catalog number.
var (
	launchStart = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	launchEnd   = time.Date(2023, 2, 1, 0, 0, 0, 0, time.UTC)
)

const (
	launchBatchSize = 60
	firstCatalogNum = 44714
)

func (c *Config) applyDefaults() {
	if len(c.Shells) == 0 {
		c.Shells = StarlinkShells()
	}
	if c.Epoch.IsZero() {
		c.Epoch = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.JitterDeg == 0 {
		c.JitterDeg = 0.15
	}
	if c.NamePrefix == "" {
		c.NamePrefix = "STARLINK"
	}
}

// meanMotionRevDay converts a circular-orbit altitude to mean motion.
func meanMotionRevDay(altKm float64) float64 {
	a := units.EarthRadiusKm + altKm
	periodSec := 2 * math.Pi * math.Sqrt(a*a*a/units.MuEarth)
	return units.SecondsPerDay / periodSec
}

// New builds a constellation. Satellites are assigned launch batches
// in an interleaved order (as in reality, where a single launch fills
// gaps across planes), so every plane holds a mix of ages.
func New(cfg Config) (*Constellation, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var all []*Satellite
	catalog := firstCatalogNum
	for _, sh := range cfg.Shells {
		if err := sh.Validate(); err != nil {
			return nil, fmt.Errorf("constellation: %w", err)
		}
		spread, _ := sh.Geometry.spreadDeg() // Validate covered the error
		mm := meanMotionRevDay(sh.AltitudeKm)
		total := sh.Planes * sh.SatsPerPlane
		for plane := 0; plane < sh.Planes; plane++ {
			raan := spread * float64(plane) / float64(sh.Planes)
			for slot := 0; slot < sh.SatsPerPlane; slot++ {
				ma := 360.0*float64(slot)/float64(sh.SatsPerPlane) +
					360.0*float64(sh.PhasingF)*float64(plane)/float64(total)
				t := &tle.TLE{
					CatalogNum:     catalog,
					IntlDesig:      fmt.Sprintf("%02d%03dA", launchStart.Year()%100, 1+catalog%999),
					Epoch:          cfg.Epoch,
					BStar:          0.0001,
					InclinationDeg: sh.InclinationDeg,
					RAANDeg:        units.WrapDeg360(raan + rng.NormFloat64()*cfg.JitterDeg),
					Eccentricity:   0.0001,
					ArgPerigeeDeg:  90,
					MeanAnomalyDeg: units.WrapDeg360(ma + rng.NormFloat64()*cfg.JitterDeg),
					MeanMotion:     mm,
				}
				var eph sgp4.Ephemeris
				var err error
				if cfg.UseKeplerJ2 {
					eph, err = sgp4.NewKeplerJ2(t)
				} else {
					eph, err = sgp4.New(t)
				}
				if err != nil {
					return nil, fmt.Errorf("constellation: shell %q plane %d slot %d: %w", sh.Name, plane, slot, err)
				}
				all = append(all, &Satellite{
					ID:         catalog,
					Name:       fmt.Sprintf("%s-%d", cfg.NamePrefix, catalog-firstCatalogNum+1000),
					Shell:      sh.Name,
					TLE:        t,
					Propagator: eph,
				})
				catalog++
			}
		}
	}

	assignLaunchBatches(all, rng)

	c := &Constellation{Sats: all, Epoch: cfg.Epoch, byID: make(map[int]*Satellite, len(all))}
	for _, s := range all {
		c.byID[s.ID] = s
	}
	c.assignPositions()
	return c, nil
}

// assignPositions numbers every satellite by its index in c.Sats,
// once (see Satellite.Pos).
func (c *Constellation) assignPositions() {
	c.posOnce.Do(func() {
		for i, s := range c.Sats {
			s.pos = i
		}
	})
}

// assignLaunchBatches spreads launch dates across the constellation.
// Satellites are shuffled, then filled batch by batch with
// monthly-spaced dates, mimicking how real launches interleave new
// hardware into existing planes.
func assignLaunchBatches(sats []*Satellite, rng *rand.Rand) {
	order := rng.Perm(len(sats))
	nBatches := (len(sats) + launchBatchSize - 1) / launchBatchSize
	window := launchEnd.Sub(launchStart)
	for i, idx := range order {
		batch := i / launchBatchSize
		var frac float64
		if nBatches > 1 {
			frac = float64(batch) / float64(nBatches-1)
		}
		date := launchStart.Add(time.Duration(frac * float64(window)))
		// Snap to the first day of the month, matching the paper's
		// year-month binning.
		date = time.Date(date.Year(), date.Month(), 1, 0, 0, 0, 0, time.UTC)
		sats[idx].Launch = date
		sats[idx].LaunchIdx = batch
	}
}

// ByID returns the satellite with the given catalog number, or nil.
func (c *Constellation) ByID(id int) *Satellite { return c.byID[id] }

// Len returns the number of satellites.
func (c *Constellation) Len() int { return len(c.Sats) }

// Visible is one satellite currently above an observer's horizon mask,
// with its look angles, sunlit state and Earth-fixed position (km) at
// the query time.
type Visible struct {
	Sat    *Satellite
	Look   astro.LookAngles
	Sunlit bool
	ECEF   units.Vec3
}

// SatState is one satellite's propagated state at a snapshot instant.
type SatState struct {
	Sat    *Satellite
	ECEF   units.Vec3
	Sunlit bool
}

// snapshotChunk is the unit of work a snapshot worker claims at a
// time: large enough that the atomic claim is noise, small enough that
// the tail of the sweep stays balanced across workers.
const snapshotChunk = 256

// resolveSnapshotWorkers maps the workers knob to an effective pool
// size for n satellites: <= 0 selects GOMAXPROCS, and the pool never
// exceeds one worker per chunk (tiny constellations run serial).
func resolveSnapshotWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + snapshotChunk - 1) / snapshotChunk; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// propagateInto runs one satellite's propagation into caller-owned
// scratch. Dispatch is devirtualized for the two built-in propagators:
// a static call lets escape analysis keep st on the caller's stack,
// where routing &st through the ScratchEphemeris interface would force
// a heap allocation per sweep. Other Ephemeris implementations
// (injected test propagators) take the value-return path.
func propagateInto(s *Satellite, t time.Time, st *sgp4.State) error {
	switch p := s.Propagator.(type) {
	case *sgp4.Propagator:
		return p.PropagateAtInto(t, st)
	case *sgp4.KeplerJ2:
		return p.PropagateAtInto(t, st)
	}
	v, err := s.Propagator.PropagateAt(t)
	if err != nil {
		return err
	}
	*st = v
	return nil
}

// snapSkip is one propagation failure observed during a snapshot
// sweep, tagged with its constellation position so parallel sweeps
// fold failures in the same deterministic order as the serial loop.
type snapSkip struct {
	idx int
	id  int
	msg string
}

// sweepJob is one snapshot sweep's inputs: the slot-invariant work —
// the TEME→ECEF rotation frame and the Sun-shadow cone — hoisted out of
// the per-satellite loop, and the buffers the loop writes by
// satellite index.
type sweepJob struct {
	c      *Constellation
	t      time.Time
	unix   int64
	frame  astro.Frame
	shadow astro.Shadow
	win    *windows   // nil: every satellite is propagated
	full   []SatState // one entry per satellite; a nil Sat is a hole
	sunlit []bool     // per-satellite sunlit state, or nil
}

// run sweeps satellites [lo, hi): a satellite inside its validity
// window keeps its sunlit state and leaves a hole; any other is
// propagated exactly, and its window reopened. Failures leave a hole
// and are appended to skips.
func (j *sweepJob) run(lo, hi int, skips []snapSkip) []snapSkip {
	var st sgp4.State
	for i := lo; i < hi; i++ {
		s := j.c.Sats[i]
		if j.win.carries(i, j.unix) {
			j.full[i].Sat = nil
			if j.sunlit != nil {
				j.sunlit[i] = j.win.sunlit[i]
			}
			continue
		}
		if err := propagateInto(s, j.t, &st); err != nil {
			j.full[i].Sat = nil
			if j.sunlit != nil {
				j.sunlit[i] = true // a satellite that failed to propagate counts as sunlit
			}
			j.win.shut(i)
			skips = append(skips, snapSkip{idx: i, id: s.ID, msg: err.Error()})
			continue
		}
		j.full[i] = SatState{
			Sat:    s,
			ECEF:   j.frame.ToECEF(st.Pos),
			Sunlit: j.shadow.Sunlit(st.Pos),
		}
		if j.sunlit != nil {
			j.sunlit[i] = j.full[i].Sunlit
		}
		j.win.open(i, s, j.unix, st.Pos, j.full[i].ECEF, j.full[i].Sunlit, &j.shadow)
	}
	return skips
}

// sweep is the one snapshot loop, run by SnapshotCache.Acquire. Every
// satellite the windows w cannot vouch for at t is propagated and
// lands in the returned states, in constellation order; a nil w
// propagates all of them. A satellite whose propagation fails
// (decayed or stale elements) is left out, as a TLE pipeline tolerates
// bad elements, but counted: the second return is the number left out,
// and PropagationSkips keeps the running total and each satellite's
// first error. dst is grown as needed; a recycled dst keeps the
// steady-state sweep allocation-free. sunlit, when non-nil, receives
// every satellite's sunlit state. With workers > 1
// the sweep fans out over a bounded pool that writes by satellite
// index, so states, order, windows, skip counts and per-satellite
// first-error text are byte-identical at every worker count.
func (c *Constellation) sweep(dst []SatState, sunlit []bool, t time.Time, workers int, w *windows) ([]SatState, int) {
	c.assignPositions()
	n := len(c.Sats)
	job := sweepJob{
		c: c, t: t, unix: t.UnixNano(),
		frame:  astro.FrameAt(t),
		shadow: astro.NewShadow(astro.SunPositionECI(t)),
		win:    w, full: growStates(dst, n), sunlit: sunlit,
	}
	var skips []snapSkip
	if workers = resolveSnapshotWorkers(workers, n); workers == 1 {
		skips = job.run(0, n, nil)
	} else {
		// The fan-out lives in its own function and takes the job by
		// value: its goroutine closures capture the job, and sharing
		// this frame's copy with them would move it to the heap on the
		// serial path too.
		skips = c.sweepParallel(job, workers)
	}
	for _, sk := range skips {
		c.recordSkip(sk.id, sk.msg)
	}
	if len(skips) == 0 && w == nil {
		return job.full, 0 // no holes
	}
	// Compact the holes in place, preserving constellation order.
	out := job.full[:0]
	for i := range job.full {
		if job.full[i].Sat != nil {
			out = append(out, job.full[i])
		}
	}
	return out, len(skips)
}

// sweepParallel is sweep's worker pool: workers claim fixed chunks off
// an atomic cursor and run them. Failures are batched per worker and
// returned sorted by constellation position, so the skip accounting —
// totals and first-error text — folds in the serial loop's order.
func (c *Constellation) sweepParallel(job sweepJob, workers int) []snapSkip {
	n := len(c.Sats)
	skipLists := make([][]snapSkip, workers)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []snapSkip
			for {
				hi := int(cursor.Add(snapshotChunk))
				lo := hi - snapshotChunk
				if lo >= n {
					break
				}
				local = job.run(lo, min(hi, n), local)
			}
			skipLists[w] = local
		}(w)
	}
	wg.Wait()
	var skips []snapSkip
	for _, l := range skipLists {
		skips = append(skips, l...)
	}
	slices.SortFunc(skips, func(a, b snapSkip) int { return a.idx - b.idx })
	return skips
}

// growStates returns dst resized to n entries, reusing its backing
// array when the capacity allows.
func growStates(dst []SatState, n int) []SatState {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]SatState, n)
}

// recordSkip folds one propagation failure into the constellation's
// skip accounting, keeping the first error text per satellite.
func (c *Constellation) recordSkip(id int, msg string) {
	c.skipMu.Lock()
	c.skipTotal++
	if c.skipBySat == nil {
		c.skipBySat = make(map[int]string)
	}
	if _, seen := c.skipBySat[id]; !seen {
		c.skipBySat[id] = msg
	}
	c.skipMu.Unlock()
}

// PropagationSkips reports how many satellite propagations this
// constellation has skipped across all snapshots, plus the first error
// observed per distinct failing satellite. Safe for concurrent use.
func (c *Constellation) PropagationSkips() (total int64, bySat map[int]string) {
	c.skipMu.Lock()
	defer c.skipMu.Unlock()
	if len(c.skipBySat) > 0 {
		bySat = make(map[int]string, len(c.skipBySat))
		for id, msg := range c.skipBySat {
			bySat[id] = msg
		}
	}
	return c.skipTotal, bySat
}

// Fingerprint returns a stable hash of the constellation's identity:
// every satellite's catalog number, orbital elements, launch metadata,
// and propagator kind. Two constellations with equal fingerprints
// produce identical snapshots at every time, which is what lets a
// SnapshotCache share propagated states across independently built
// environments. Computed once and cached.
func (c *Constellation) Fingerprint() uint64 {
	c.fpOnce.Do(func() {
		h := fnv.New64a()
		buf := make([]byte, 8)
		wInt := func(v int64) {
			binary.LittleEndian.PutUint64(buf, uint64(v))
			h.Write(buf)
		}
		wFloat := func(v float64) {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			h.Write(buf)
		}
		wInt(int64(len(c.Sats)))
		wInt(c.Epoch.UnixNano())
		for _, s := range c.Sats {
			wInt(int64(s.ID))
			wInt(s.Launch.UnixNano())
			wInt(int64(s.LaunchIdx))
			h.Write([]byte(s.Shell))
			h.Write([]byte(fmt.Sprintf("%T", s.Propagator)))
			if t := s.TLE; t != nil {
				wInt(t.Epoch.UnixNano())
				wFloat(t.InclinationDeg)
				wFloat(t.RAANDeg)
				wFloat(t.Eccentricity)
				wFloat(t.ArgPerigeeDeg)
				wFloat(t.MeanAnomalyDeg)
				wFloat(t.MeanMotion)
				wFloat(t.BStar)
			} else {
				wInt(-1) // synthetic satellite without elements
			}
		}
		c.fp = h.Sum64()
	})
	return c.fp
}

// ObserveFrom filters a snapshot to the satellites above minElevDeg
// for the observer, sorted by descending elevation with ties broken by
// ascending satellite ID. The tie-break makes the order a total order:
// equal-elevation satellites (common in synthetic Walker shells) come
// out identically across runs, architectures, and — critically — across
// the linear scan and the SnapshotIndex query path, which must agree
// byte for byte.
func ObserveFrom(obs astro.Geodetic, snap []SatState, minElevDeg float64) []Visible {
	// A 25° mask over a 4k-satellite constellation sees a few dozen
	// satellites; 48 covers typical sweeps without append regrowth.
	hint := 48
	if hint > len(snap) {
		hint = len(snap)
	}
	return AppendObserveFrom(make([]Visible, 0, hint), obs, snap, minElevDeg)
}

// AppendObserveFrom is ObserveFrom appending into dst (reusing its
// backing array), for callers that sweep many slots and want the
// per-slot visibility scan allocation-free.
func AppendObserveFrom(dst []Visible, obs astro.Geodetic, snap []SatState, minElevDeg float64) []Visible {
	o := astro.NewObserver(obs)
	start := len(dst)
	for i := range snap {
		la := o.Observe(snap[i].ECEF)
		if la.ElevationDeg < minElevDeg {
			continue
		}
		dst = append(dst, Visible{Sat: snap[i].Sat, Look: la, Sunlit: snap[i].Sunlit, ECEF: snap[i].ECEF})
	}
	sortVisible(dst[start:])
	return dst
}

// sortVisible orders a visible set by descending elevation, ties by
// ascending satellite ID — the one deterministic order every
// visibility path (linear scan and index) must produce. Satellite IDs
// are unique, so the comparator is a total order and the (unstable)
// sort is deterministic.
func sortVisible(out []Visible) {
	slices.SortFunc(out, func(a, b Visible) int {
		if a.Look.ElevationDeg != b.Look.ElevationDeg {
			if a.Look.ElevationDeg > b.Look.ElevationDeg {
				return -1
			}
			return 1
		}
		return a.Sat.ID - b.Sat.ID
	})
}

// ExportTLEs renders the whole constellation in CelesTrak 3-line
// format.
func (c *Constellation) ExportTLEs() string {
	out := make([]byte, 0, len(c.Sats)*3*70)
	for _, s := range c.Sats {
		s.TLE.Name = s.Name
		for _, l := range s.TLE.FormatLines() {
			out = append(out, l...)
			out = append(out, '\n')
		}
	}
	return string(out)
}
