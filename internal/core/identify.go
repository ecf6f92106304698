package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/geo"
	"repro/internal/obstruction"
	"repro/internal/sgp4"
	"repro/internal/units"
)

// Identifier implements the paper's §4 technique: isolate the newest
// obstruction-map trajectory by XOR-ing consecutive snapshots, convert
// its pixels to sky coordinates, and match against the SGP4-propagated
// tracks of every candidate satellite by dynamic time warping.
type Identifier struct {
	cons *constellation.Constellation
	// MinElevationDeg is the visibility mask (default 25).
	MinElevationDeg float64
	// SampleStep spaces the candidate-track samples (default 1s, 16
	// points per 15-second slot; values <= 0 select the default).
	SampleStep time.Duration
	// UseNaiveMatcher switches to the nearest-endpoint ablation
	// baseline instead of DTW.
	UseNaiveMatcher bool
	// DisablePruning routes matching through the brute-force
	// dtw.Identify instead of the pruned dtw.Matcher. The two are
	// bit-identical by construction; the knob exists so that guarantee
	// stays testable end to end (see TestCampaignMatcherBruteIdentical)
	// and to time the unpruned baseline.
	DisablePruning bool
}

// NewIdentifier builds an identifier over public TLE data.
func NewIdentifier(cons *constellation.Constellation) (*Identifier, error) {
	if cons == nil {
		return nil, fmt.Errorf("core: nil constellation")
	}
	return &Identifier{cons: cons, MinElevationDeg: 25, SampleStep: time.Second}, nil
}

// CandidateTracksFromSnapshot samples the projected sky-track of
// every satellite in the terminal's field of view over the slot, given
// the constellation snapshot for slotStart: the linear field-of-view
// scan of snap, then the candidate sampler the campaign engine runs
// over its indexed field of view. Unlike the engine's identification,
// which samples only the candidates its pre-bounds cannot rule out, it
// samples every one; perfbench's traced replay times the candidate
// stage through it. The second return is the number of in-view
// candidates dropped because propagation failed mid-slot; a dropped
// candidate is distinguishable from one that was simply below the mask
// all slot, because the (possibly true) serving satellite may be among
// the dropped. The output is owned by the caller.
func (id *Identifier) CandidateTracksFromSnapshot(snap []constellation.SatState, vp geo.VantagePoint, slotStart time.Time) ([]dtw.Candidate, int) {
	sc := slotScratch{fov: constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg)}
	return id.candidateTracks(&sc, vp, slotStart)
}

// candidateTracks samples every satellite of the slot's field of view,
// sc.fov, in order. The tracks are carved from sc.points and stay
// valid until the next call on sc; in steady state it does not
// allocate.
func (id *Identifier) candidateTracks(sc *slotScratch, vp geo.VantagePoint, slotStart time.Time) ([]dtw.Candidate, int) {
	smp := id.newSampler(sc, vp, slotStart)
	if cap(sc.cands) < len(sc.fov) {
		sc.cands = make([]dtw.Candidate, 0, len(sc.fov))
	}
	cands := sc.cands[:0]
	for i := range sc.fov {
		if c, ok := smp.Candidate(i); ok {
			cands = append(cands, c)
		}
	}
	sc.cands = cands
	return cands, smp.dropped
}

// speedBounder is the optional interface of an sgp4.Ephemeris that
// bounds how fast its satellite moves: SpeedBoundKmS returns an upper
// bound, in km/s, on the speed of its Earth-fixed position over the
// minutes around t, or +Inf. Both built-in propagators implement it;
// a candidate whose ephemeris does not gets no finite pre-bound
// radius.
type speedBounder interface {
	SpeedBoundKmS(t time.Time) float64
}

var (
	_ speedBounder = (*sgp4.Propagator)(nil)
	_ speedBounder = (*sgp4.KeplerJ2)(nil)
)

// candidateSampler is the candidate-track kernel of one (slot,
// terminal) cell: it samples a satellite of the field of view, sc.fov
// (above the mask at slotStart, in ObserveFrom order), across the slot
// and projects the above-mask samples onto the plot plane. Everything
// that does not vary per satellite is hoisted: the rotation frame of
// each sample instant (shared by every terminal sc sees in the slot),
// the observer's local frame, and the dt = 0 sample, which is the
// field of view's own look angle. It is the dtw.TrackSource of the
// pruned identification, which samples candidates on demand, and
// candidateTracks drives it over every candidate.
type candidateSampler struct {
	id        *Identifier
	sc        *slotScratch
	o         astro.Observer
	frames    []astro.Frame
	slotStart time.Time
	step      time.Duration
	// dropped counts sampled candidates lost to propagation errors;
	// kept counts those with a track.
	dropped, kept int
}

// newSampler readies sc's sampler for the slot. Reserving every
// sample up front means the carved tracks never see their backing
// array regrow.
func (id *Identifier) newSampler(sc *slotScratch, vp geo.VantagePoint, slotStart time.Time) *candidateSampler {
	step := id.sampleStep()
	frames := sc.framesFor(slotStart, step)
	sc.points = slices.Grow(sc.points[:0], len(sc.fov)*len(frames))
	sc.sampler = candidateSampler{id: id, sc: sc, o: astro.NewObserver(vp.Location), frames: frames, slotStart: slotStart, step: step}
	return &sc.sampler
}

// Candidate samples field-of-view entry i (dtw.TrackSource). ok is
// false when propagation fails mid-slot (counted in dropped) or when
// no sample is above the mask.
func (s *candidateSampler) Candidate(i int) (dtw.Candidate, bool) {
	v := &s.sc.fov[i]
	sky, err := sampleSky(s.sc.sky[:0], v.Sat, &s.o, s.frames, s.slotStart, s.step, &v.Look)
	s.sc.sky = sky
	if err != nil {
		s.dropped++
		return dtw.Candidate{}, false
	}
	pts := s.sc.points
	first := len(pts)
	for _, p := range sky {
		if p.ElevationDeg < s.id.MinElevationDeg {
			continue
		}
		pts = append(pts, dtw.FromPolar(p))
	}
	s.sc.points = pts
	if len(pts) == first {
		return dtw.Candidate{}, false // below the mask for the whole slot
	}
	s.kept++
	return dtw.Candidate{ID: v.Sat.ID, Track: pts[first:len(pts):len(pts)]}, true
}

// preBounds fills sc.pre with each field-of-view candidate's
// dtw.DiscBound against observed: its dt = 0 plot point is known
// without propagation, and discRadius bounds how far the rest of its
// track can stray from it.
func (s *candidateSampler) preBounds(observed []dtw.Point) []float64 {
	pre := s.sc.pre[:0]
	for i := range s.sc.fov {
		v := &s.sc.fov[i]
		c0 := dtw.FromPolar(obstruction.PolarPoint{ElevationDeg: v.Look.ElevationDeg, AzimuthDeg: v.Look.AzimuthDeg})
		radius, full := s.discRadius(v)
		pre = append(pre, dtw.DiscBound(observed, c0, radius, len(s.frames), full))
	}
	s.sc.pre = pre
	return pre
}

// discRadius bounds, in plot-plane degrees, the distance from v's
// dt = 0 plot point to any of its above-mask samples in the slot, and
// reports whether every sample is sure to clear the mask.
//
// The satellite moves at most reach = speed·span km in the Earth-fixed
// frame, so its range stays above range0 − reach, and its direction
// from the observer turns at most θ = reach / (range0 − reach) radians
// (the integral of speed/range, ln(range0/(range0 − reach)), is
// smaller). Elevation therefore stays within θ of its start. On the
// polar plot, whose radius is the zenith distance z, a sky arc of
// angle θ maps to a path no longer than θ·z/sin z at the arc's largest
// z, which is at most z0 + θ and, for above-mask endpoints, at most
// the mask's zenith distance. An ephemeris without a speed bound gets
// radius +Inf.
func (s *candidateSampler) discRadius(v *constellation.Visible) (radius float64, full bool) {
	sb, ok := v.Sat.Propagator.(speedBounder)
	if !ok {
		return math.Inf(1), false
	}
	span := float64(len(s.frames)-1) * s.step.Seconds()
	reach := sb.SpeedBoundKmS(s.slotStart) * span
	if !(reach < v.Look.RangeKm) {
		return math.Inf(1), false
	}
	theta := reach / (v.Look.RangeKm - reach)
	z := units.Deg2Rad(90-v.Look.ElevationDeg) + theta
	if zMask := units.Deg2Rad(90 - s.id.MinElevationDeg); zMask <= math.Pi/2 && zMask < z {
		z = zMask
	}
	if !(z < math.Pi) {
		return math.Inf(1), false
	}
	stretch := 1.0
	if z > 0 {
		stretch = z / math.Sin(z)
	}
	return units.Rad2Deg(theta * stretch), v.Look.ElevationDeg-units.Rad2Deg(theta) > s.id.MinElevationDeg
}

// sampleStep resolves SampleStep: values <= 0 select the 1 s default.
func (id *Identifier) sampleStep() time.Duration {
	if id.SampleStep <= 0 {
		return time.Second
	}
	return id.SampleStep
}

// sampleSky is the one track sampler behind candidate tracks, the
// polar candidate tracks and the painted serving track. It appends
// sat's look angles from o at each of the slot's sample instants,
// frames[k] being the rotation at slotStart + k·step, below-mask
// samples included. A non-nil look0 is the satellite's look angle at
// slotStart from a field-of-view query over the slot's snapshot and
// stands in for the dt = 0 propagation: the snapshot rotates the same
// SGP4 state with the same frame and the query observes it with the
// same observer terms, so the two are bit-identical. A propagation
// error aborts the track and is returned unwrapped: the caller decides
// whether that means "drop the candidate" or "fail the call", and a
// transient SGP4 failure mid-slot must never be conflated with "below
// the mask all slot".
func sampleSky(dst []obstruction.PolarPoint, sat *constellation.Satellite, o *astro.Observer,
	frames []astro.Frame, slotStart time.Time, step time.Duration, look0 *astro.LookAngles) ([]obstruction.PolarPoint, error) {
	k := 0
	if look0 != nil {
		dst = append(dst, obstruction.PolarPoint{ElevationDeg: look0.ElevationDeg, AzimuthDeg: look0.AzimuthDeg})
		k = 1
	}
	for ; k < len(frames); k++ {
		st, err := sat.Propagator.PropagateAt(slotStart.Add(time.Duration(k) * step))
		if err != nil {
			return dst, err
		}
		la := o.Observe(frames[k].ToECEF(st.Pos))
		dst = append(dst, obstruction.PolarPoint{ElevationDeg: la.ElevationDeg, AzimuthDeg: la.AzimuthDeg})
	}
	return dst, nil
}

// CandidatePolarTracks returns every in-view satellite's sky-track
// over the slot in polar form, keyed by satellite ID and sampled by the
// same sampler as the candidate tracks — the input for
// skyplot.Validation, the §4 manual-check rendering. snap is the
// constellation snapshot for slotStart. The second return is the
// number of in-view satellites left out because propagation failed
// mid-slot.
func (id *Identifier) CandidatePolarTracks(snap *constellation.SharedSnapshot, vp geo.VantagePoint, slotStart time.Time) (map[int][]obstruction.PolarPoint, int) {
	fov := snap.AppendObserveFrom(nil, vp.Location, id.MinElevationDeg, false)
	step := id.sampleStep()
	var sc slotScratch
	frames := sc.framesFor(slotStart, step)
	o := astro.NewObserver(vp.Location)
	out := make(map[int][]obstruction.PolarPoint, len(fov))
	dropped := 0
	for i := range fov {
		v := &fov[i]
		pts, err := sampleSky(sc.sky[:0], v.Sat, &o, frames, slotStart, step, &v.Look)
		sc.sky = pts
		if err != nil {
			dropped++
			continue
		}
		var masked []obstruction.PolarPoint
		for _, p := range pts {
			if p.ElevationDeg >= id.MinElevationDeg {
				masked = append(masked, p)
			}
		}
		if len(masked) > 0 {
			out[v.Sat.ID] = masked
		}
	}
	return out, dropped
}

// Identification is the outcome of one slot's §4 matching.
type Identification struct {
	Terminal  string
	SlotStart time.Time
	SatID     int     // identified satellite
	Distance  float64 // DTW distance of the winner
	Margin    float64 // runner-up distance minus winner distance
	// TrackLen is the number of sky points recovered from the XOR diff.
	TrackLen int
	// Dropped is the number of sampled candidates lost to propagation
	// errors mid-slot. Non-zero means the candidate set was incomplete
	// and the identification should be treated with suspicion. The
	// pruned matcher samples only the candidates its pre-bounds cannot
	// rule out, so a failing satellite it never sampled is not counted;
	// the naive and brute-force paths sample, and count, every one.
	Dropped int
}

// IdentifyFromMaps runs the full §4 pipeline on two consecutive
// obstruction-map snapshots. snap is the constellation snapshot for
// slotStart and matcher a reusable dtw.Matcher (nil uses a fresh one),
// so callers that identify many slots amortize the matcher's scratch
// buffers and pruning bars. Results are bit-identical at every choice
// of matcher, including the brute-force path selected by
// DisablePruning.
func (id *Identifier) IdentifyFromMaps(prev, cur *obstruction.Map, vp geo.VantagePoint, slotStart time.Time, snap *constellation.SharedSnapshot, matcher *dtw.Matcher) (Identification, error) {
	sc := slotScratch{fov: snap.AppendObserveFrom(nil, vp.Location, id.MinElevationDeg, false)}
	return id.identify(&sc, obstruction.XOR(prev, cur), vp, slotStart, matcher)
}

// identify is the §4 pipeline over the slot's field of view, sc.fov:
// the track of diff, the XOR of two consecutive snapshots, is matched
// against the candidate tracks the kernel samples through sc.
func (id *Identifier) identify(sc *slotScratch, diff *obstruction.Map, vp geo.VantagePoint, slotStart time.Time, matcher *dtw.Matcher) (Identification, error) {
	track := sc.tracker.AppendTrack(sc.track[:0], diff)
	sc.track = track
	if len(track) < 2 {
		return Identification{}, fmt.Errorf("core: slot %v at %s: XOR diff has %d points (satellite unchanged or overlapping trajectory)",
			slotStart, vp.Name, len(track))
	}
	observed := sc.observed[:0]
	for _, p := range track {
		observed = append(observed, dtw.FromPolar(p))
	}
	sc.observed = observed
	out := Identification{Terminal: vp.Name, SlotStart: slotStart, TrackLen: len(track)}
	var best dtw.Match
	var err error
	if id.UseNaiveMatcher || id.DisablePruning {
		var cands []dtw.Candidate
		cands, out.Dropped = id.candidateTracks(sc, vp, slotStart)
		if len(cands) == 0 {
			return Identification{}, noCandidates(vp, slotStart, out.Dropped)
		}
		if id.UseNaiveMatcher {
			if best, err = dtw.NaiveNearestEndpoint(observed, cands); err != nil {
				return Identification{}, fmt.Errorf("core: naive match at %s: %w", vp.Name, err)
			}
			out.SatID = best.ID
			out.Distance = best.Distance
			return out, nil
		}
		best, out.Margin, err = dtw.Identify(observed, cands)
	} else {
		if matcher == nil {
			matcher = &dtw.Matcher{}
		}
		smp := id.newSampler(sc, vp, slotStart)
		best, out.Margin, err = matcher.Scan(observed, len(sc.fov), smp.preBounds(observed), smp)
		out.Dropped = smp.dropped
		if smp.kept == 0 {
			// Nothing is pruned before two candidates have distances,
			// so every candidate was sampled and dropped counts them all.
			return Identification{}, noCandidates(vp, slotStart, out.Dropped)
		}
	}
	if err != nil {
		return Identification{}, fmt.Errorf("core: dtw match at %s: %w", vp.Name, err)
	}
	out.SatID = best.ID
	out.Distance = best.Distance
	return out, nil
}

// noCandidates is the identification error for a slot whose candidate
// set came out empty.
func noCandidates(vp geo.VantagePoint, slotStart time.Time, dropped int) error {
	return fmt.Errorf("core: slot %v at %s: no candidate satellites in view (%d dropped by propagation errors)", slotStart, vp.Name, dropped)
}

// ServingTrack samples the serving satellite's sky-track for a slot
// the way dish firmware records it: look angles sampled along the
// slot, including below-mask points (PaintTrack clips them).
func (id *Identifier) ServingTrack(satID int, vp geo.VantagePoint, slotStart time.Time) ([]obstruction.PolarPoint, error) {
	return id.servingTrack(&slotScratch{}, satID, vp, slotStart)
}

// servingTrack is ServingTrack sampling through sc; the track aliases
// sc.sky and stays valid until the next sampling call on sc.
func (id *Identifier) servingTrack(sc *slotScratch, satID int, vp geo.VantagePoint, slotStart time.Time) ([]obstruction.PolarPoint, error) {
	sat := id.cons.ByID(satID)
	if sat == nil {
		return nil, fmt.Errorf("core: unknown satellite %d", satID)
	}
	step := id.sampleStep()
	o := astro.NewObserver(vp.Location)
	pts, err := sampleSky(sc.sky[:0], sat, &o, sc.framesFor(slotStart, step), slotStart, step, nil)
	sc.sky = pts
	if err != nil {
		return nil, fmt.Errorf("core: propagate %d: %w", sat.ID, err)
	}
	return pts, nil
}

// PaintServingTrack renders the serving satellite's sky-track for a
// slot into the map, drawn as a connected stroke.
func (id *Identifier) PaintServingTrack(m *obstruction.Map, satID int, vp geo.VantagePoint, slotStart time.Time) error {
	return id.paintServingTrack(&slotScratch{}, m, satID, vp, slotStart)
}

// paintServingTrack is PaintServingTrack sampling through sc.
func (id *Identifier) paintServingTrack(sc *slotScratch, m *obstruction.Map, satID int, vp geo.VantagePoint, slotStart time.Time) error {
	pts, err := id.servingTrack(sc, satID, vp, slotStart)
	if err != nil {
		return err
	}
	m.PaintTrack(pts)
	return nil
}
