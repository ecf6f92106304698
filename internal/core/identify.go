package core

import (
	"fmt"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/dtw"
	"repro/internal/geo"
	"repro/internal/obstruction"
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
// scan of snap, then the same kernel the campaign engine runs over its
// indexed field of view. The second return is the number of in-view
// candidates dropped because propagation failed mid-slot; a dropped
// candidate is distinguishable from one that was simply below the mask
// all slot, because the (possibly true) serving satellite may be among
// the dropped. The output is owned by the caller.
func (id *Identifier) CandidateTracksFromSnapshot(snap []constellation.SatState, vp geo.VantagePoint, slotStart time.Time) ([]dtw.Candidate, int) {
	sc := slotScratch{fov: constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg)}
	return id.candidateTracks(&sc, vp, slotStart)
}

// candidateTracks is the candidate-track kernel: it samples every
// satellite of the slot's field of view, sc.fov (above the mask at
// slotStart, in ObserveFrom order), across the slot and projects the
// above-mask samples onto the plot plane. Everything that does not
// vary per satellite is hoisted: the rotation frame of each sample
// instant (shared by every terminal sc sees in the slot), the
// observer's local frame, and the dt = 0 sample, which is the field of
// view's own look angle. The tracks are carved from sc.points and stay
// valid until the next call on sc; in steady state the kernel does not
// allocate.
func (id *Identifier) candidateTracks(sc *slotScratch, vp geo.VantagePoint, slotStart time.Time) ([]dtw.Candidate, int) {
	step := id.sampleStep()
	frames := sc.framesFor(slotStart, step)
	o := astro.NewObserver(vp.Location)
	// Reserving every sample up front means the carved tracks never
	// see their backing array regrow.
	if need := len(sc.fov) * len(frames); cap(sc.points) < need {
		sc.points = make([]dtw.Point, 0, need)
	}
	if cap(sc.cands) < len(sc.fov) {
		sc.cands = make([]dtw.Candidate, 0, len(sc.fov))
	}
	pts, cands := sc.points[:0], sc.cands[:0]
	dropped := 0
	for i := range sc.fov {
		v := &sc.fov[i]
		sky, err := sampleSky(sc.sky[:0], v.Sat, &o, frames, slotStart, step, &v.Look)
		sc.sky = sky
		if err != nil {
			dropped++
			continue
		}
		first := len(pts)
		for _, p := range sky {
			if p.ElevationDeg < id.MinElevationDeg {
				continue
			}
			pts = append(pts, dtw.FromPolar(p))
		}
		if len(pts) == first {
			continue // below the mask for the whole slot
		}
		cands = append(cands, dtw.Candidate{ID: v.Sat.ID, Track: pts[first:len(pts):len(pts)]})
	}
	sc.points, sc.cands = pts, cands
	return cands, dropped
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
// skyplot.Validation, the §4 manual-check rendering.
func (id *Identifier) CandidatePolarTracks(vp geo.VantagePoint, slotStart time.Time) map[int][]obstruction.PolarPoint {
	fov := constellation.ObserveFrom(vp.Location, id.cons.Snapshot(slotStart), id.MinElevationDeg)
	step := id.sampleStep()
	var sc slotScratch
	frames := sc.framesFor(slotStart, step)
	o := astro.NewObserver(vp.Location)
	out := make(map[int][]obstruction.PolarPoint, len(fov))
	for i := range fov {
		v := &fov[i]
		pts, err := sampleSky(sc.sky[:0], v.Sat, &o, frames, slotStart, step, &v.Look)
		sc.sky = pts
		if err != nil {
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
	return out
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
	// Dropped is the number of in-view candidates lost to propagation
	// errors mid-slot. Non-zero means the candidate set was incomplete
	// and the identification should be treated with suspicion.
	Dropped int
}

// IdentifyFromMaps runs the full §4 pipeline on two consecutive
// obstruction-map snapshots. snap is the constellation snapshot for
// slotStart (nil propagates one internally) and matcher a reusable
// dtw.Matcher (nil uses a fresh one), so callers that identify many
// slots amortize propagation and the matcher's scratch buffers and
// pruning bars. Results are bit-identical at every choice of either,
// including the brute-force path selected by DisablePruning.
func (id *Identifier) IdentifyFromMaps(prev, cur *obstruction.Map, vp geo.VantagePoint, slotStart time.Time, snap []constellation.SatState, matcher *dtw.Matcher) (Identification, error) {
	if snap == nil {
		snap = id.cons.Snapshot(slotStart)
	}
	sc := slotScratch{fov: constellation.ObserveFrom(vp.Location, snap, id.MinElevationDeg)}
	return id.identify(&sc, prev, cur, vp, slotStart, matcher)
}

// identify is the §4 pipeline over the slot's field of view, sc.fov:
// the XOR-isolated track is matched against the candidate tracks the
// kernel samples through sc.
func (id *Identifier) identify(sc *slotScratch, prev, cur *obstruction.Map, vp geo.VantagePoint, slotStart time.Time, matcher *dtw.Matcher) (Identification, error) {
	track := obstruction.XOR(prev, cur).Track()
	if len(track) < 2 {
		return Identification{}, fmt.Errorf("core: slot %v at %s: XOR diff has %d points (satellite unchanged or overlapping trajectory)",
			slotStart, vp.Name, len(track))
	}
	observed := dtw.FromPolarTrack(track)
	cands, dropped := id.candidateTracks(sc, vp, slotStart)
	if len(cands) == 0 {
		return Identification{}, fmt.Errorf("core: slot %v at %s: no candidate satellites in view (%d dropped by propagation errors)", slotStart, vp.Name, dropped)
	}
	out := Identification{Terminal: vp.Name, SlotStart: slotStart, TrackLen: len(track), Dropped: dropped}
	if id.UseNaiveMatcher {
		m, err := dtw.NaiveNearestEndpoint(observed, cands)
		if err != nil {
			return Identification{}, fmt.Errorf("core: naive match at %s: %w", vp.Name, err)
		}
		out.SatID = m.ID
		out.Distance = m.Distance
		return out, nil
	}
	var best dtw.Match
	var margin float64
	var err error
	if id.DisablePruning {
		best, margin, err = dtw.Identify(observed, cands)
	} else {
		if matcher == nil {
			matcher = &dtw.Matcher{}
		}
		best, margin, err = matcher.Identify(observed, cands)
	}
	if err != nil {
		return Identification{}, fmt.Errorf("core: dtw match at %s: %w", vp.Name, err)
	}
	out.SatID = best.ID
	out.Distance = best.Distance
	out.Margin = margin
	return out, nil
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
