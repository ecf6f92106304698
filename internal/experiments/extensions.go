package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/astro"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/units"
)

// Extensions: the paper's §8 future work, implemented.
//
//   - Hemisphere generalization: the GSO exclusion zone sits in the
//     southern sky for northern terminals and in the northern sky for
//     southern terminals, so the scheduler's directional preference
//     should flip across the equator.
//   - Load sensitivity: the paper hypothesizes that unobservable
//     satellite load bounds the model's accuracy. With our simulated
//     controller the hypothesis is testable: remove the hidden load
//     term and the model should get more accurate.
//   - GSO ablation: disabling the exclusion zone should erase most of
//     the north preference, confirming the paper's §5.1 rationale.

// HemisphereSite is one site's directional statistics. NorthFrac must
// be read against AvailNorthFrac: at extreme latitudes a 53°-shell
// constellation is only visible equator-ward, so the availability
// baseline — not 50% — is the neutral point.
type HemisphereSite struct {
	Terminal       string
	LatDeg         float64
	NorthFrac      float64 // fraction of picks in the northern half-sky
	AvailNorthFrac float64 // fraction of available satellites there
	Slots          int
}

// NorthSkew is the pick skew relative to availability: positive means
// the scheduler prefers the northern sky beyond what geometry offers.
func (s HemisphereSite) NorthSkew() float64 { return s.NorthFrac - s.AvailNorthFrac }

// HemisphereResult compares directional preference across the equator.
type HemisphereResult struct {
	Northern []HemisphereSite // the paper's sites (>40N)
	Southern []HemisphereSite // Sydney, Punta Arenas, Quito
}

// HemisphereComparison runs two campaigns — the paper's northern sites
// and the §8 southern sites — and measures where each site's picks
// point.
func (e *Env) HemisphereComparison(slots int) (*HemisphereResult, error) {
	if slots == 0 {
		slots = 200
	}
	south, err := e.sibling(southernSites)
	if err != nil {
		return nil, fmt.Errorf("experiments: southern env: %w", err)
	}
	res := &HemisphereResult{}
	for _, pair := range []struct {
		env *Env
		out *[]HemisphereSite
	}{{e, &res.Northern}, {south, &res.Southern}} {
		obs, err := pair.env.Observations(slots)
		if err != nil {
			return nil, err
		}
		chosenByTerm := map[string][]float64{}
		availByTerm := map[string][]float64{}
		for _, o := range obs {
			c, ok := o.Chosen()
			if !ok {
				continue
			}
			chosenByTerm[o.Terminal] = append(chosenByTerm[o.Terminal], c.AzimuthDeg)
			for _, a := range o.Available {
				availByTerm[o.Terminal] = append(availByTerm[o.Terminal], a.AzimuthDeg)
			}
		}
		isNorth := func(a float64) bool { return a < 90 || a >= 270 }
		for _, t := range pair.env.Terminals {
			az := chosenByTerm[t.Name]
			if len(az) == 0 {
				continue
			}
			*pair.out = append(*pair.out, HemisphereSite{
				Terminal:       t.Name,
				LatDeg:         t.Location.LatDeg,
				NorthFrac:      stats.Proportion(az, isNorth),
				AvailNorthFrac: stats.Proportion(availByTerm[t.Name], isNorth),
				Slots:          len(az),
			})
		}
	}
	return res, nil
}

// sibling builds a §8 ablation twin of e: a copy of the Config e was
// built from with edit applied, and no registry or decision ring, so
// the twin's campaigns stay out of the parent's counters and trace.
func (e *Env) sibling(edit func(*Config)) (*Env, error) {
	cfg := e.cfg
	cfg.Telemetry, cfg.TraceDecisions = nil, 0
	edit(&cfg)
	s, err := NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	s.Ctx = e.Ctx
	return s, nil
}

// The §8 sibling edits: each changes only the ablated field.
func southernSites(c *Config) { c.VantagePoints = geo.SouthernVantagePoints() }

func withoutGSO(c *Config) { c.GSOProtectionDeg = -1 }

// withoutLoad zeroes the hidden load term of the effective weights.
func withoutLoad(c *Config) {
	if c.Weights == (scheduler.Weights{}) {
		c.Weights = scheduler.DefaultWeights()
	}
	c.Weights.Load = 0
}

// deterministic also removes the score noise and the battery term,
// which is as unobservable as load.
func deterministic(c *Config) {
	withoutLoad(c)
	c.Weights.NoiseStd = 1e-9
	c.Weights.Charge = 0
}

// LoadSensitivityResult is the §8 load-hypothesis test.
type LoadSensitivityResult struct {
	// WithHiddenLoad is holdout top-5 accuracy against the default
	// scheduler (hidden load + score noise active).
	WithHiddenLoad float64
	// WithoutHiddenLoad is the same protocol against a scheduler whose
	// load term is zeroed (score noise remains).
	WithoutHiddenLoad float64
	// Deterministic removes every unobservable term (load, battery,
	// noise): the ceiling the model could reach if the scheduler
	// depended only on public features.
	Deterministic float64
	// Top-1 variants of the same three accuracies; determinism shows
	// up most strongly here.
	WithHiddenLoadTop1    float64
	WithoutHiddenLoadTop1 float64
	DeterministicTop1     float64
	Rows                  int
}

// LoadSensitivity trains the §6 model against schedulers with
// progressively fewer unobservable factors. The paper predicts the
// unobservables are what bound model accuracy; Deterministic should
// clearly exceed WithHiddenLoad.
func (e *Env) LoadSensitivity(slots int) (*LoadSensitivityResult, error) {
	if slots == 0 {
		slots = 400
	}
	quiet, err := e.sibling(withoutLoad)
	if err != nil {
		return nil, fmt.Errorf("experiments: no-load env: %w", err)
	}
	det, err := e.sibling(deterministic)
	if err != nil {
		return nil, fmt.Errorf("experiments: deterministic env: %w", err)
	}
	out := &LoadSensitivityResult{}
	for _, pair := range []struct {
		env  *Env
		acc  *float64
		top1 *float64
	}{
		{e, &out.WithHiddenLoad, &out.WithHiddenLoadTop1},
		{quiet, &out.WithoutHiddenLoad, &out.WithoutHiddenLoadTop1},
		{det, &out.Deterministic, &out.DeterministicTop1},
	} {
		obs, err := pair.env.Observations(slots)
		if err != nil {
			return nil, err
		}
		d, err := core.BuildDataset(obs)
		if err != nil {
			return nil, err
		}
		mc := QuickModelConfig(pair.env.Seed + 1)
		mc.Workers = e.Workers
		res, err := core.TrainModelCtx(e.ctx(), d, mc)
		if err != nil {
			return nil, err
		}
		*pair.acc = res.ModelTopK[4]
		*pair.top1 = res.ModelTopK[0]
		out.Rows = len(d.X)
	}
	return out, nil
}

// GSOAblationResult compares the north preference with the exclusion
// zone on and off.
type GSOAblationResult struct {
	NorthFracWithGSO    float64
	NorthFracWithoutGSO float64
	Slots               int
}

// GSOAblation measures how much of the scheduler's north preference
// the exclusion zone explains (the paper's §5.1 rationale). The
// residual preference without the zone comes from the explicit north
// weight alone.
func (e *Env) GSOAblation(slots int) (*GSOAblationResult, error) {
	if slots == 0 {
		slots = 200
	}
	noGSO, err := e.sibling(withoutGSO)
	if err != nil {
		return nil, fmt.Errorf("experiments: no-GSO env: %w", err)
	}
	out := &GSOAblationResult{}
	for _, pair := range []struct {
		env  *Env
		frac *float64
	}{{e, &out.NorthFracWithGSO}, {noGSO, &out.NorthFracWithoutGSO}} {
		obs, err := pair.env.Observations(slots)
		if err != nil {
			return nil, err
		}
		var az []float64
		for _, o := range obs {
			if c, ok := o.Chosen(); ok {
				az = append(az, c.AzimuthDeg)
			}
		}
		if len(az) == 0 {
			return nil, fmt.Errorf("experiments: no picks in GSO ablation")
		}
		*pair.frac = stats.Proportion(az, func(a float64) bool { return a < 90 || a >= 270 })
		out.Slots = len(az)
	}
	return out, nil
}

// HandoverResult characterizes loss around the 15-second reallocation
// boundary: the netsim path (like the real network) drops more packets
// in the moments after a handover.
type HandoverResult struct {
	// BinMs is the width of each offset-within-slot bin.
	BinMs float64
	// LossByOffset[i] is the loss rate of probes sent in
	// [i*BinMs, (i+1)*BinMs) past the slot boundary.
	LossByOffset []float64
	// EarlyLoss / SteadyLoss summarize the first 300 ms vs the rest.
	EarlyLoss, SteadyLoss float64
	Probes                int
}

// HandoverAnalysis probes one terminal for dur and bins loss by offset
// within the slot.
func (e *Env) HandoverAnalysis(terminalName string, dur time.Duration) (*HandoverResult, error) {
	if terminalName == "" {
		terminalName = "Iowa"
	}
	if dur == 0 {
		dur = 10 * time.Minute
	}
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	path, err := netsim.NewPath(netsim.Config{
		Constellation: e.Cons,
		Scheduler:     e.Sched,
		Terminal:      term,
		Seed:          e.Seed,
	})
	if err != nil {
		return nil, err
	}
	samples, err := path.Trace(e.Start(), dur, 20*time.Millisecond)
	if err != nil {
		return nil, err
	}
	const binMs = 250.0
	nBins := int(float64(scheduler.Period/time.Millisecond) / binMs)
	lost := make([]int, nBins)
	total := make([]int, nBins)
	var earlyLost, earlyTotal, steadyLost, steadyTotal int
	for _, s := range samples {
		off := s.T.Sub(scheduler.EpochStart(s.T))
		bin := int(float64(off/time.Millisecond) / binMs)
		if bin >= nBins {
			bin = nBins - 1
		}
		total[bin]++
		if off < 300*time.Millisecond {
			earlyTotal++
		} else {
			steadyTotal++
		}
		if s.Lost {
			lost[bin]++
			if off < 300*time.Millisecond {
				earlyLost++
			} else {
				steadyLost++
			}
		}
	}
	res := &HandoverResult{BinMs: binMs, Probes: len(samples)}
	for i := range lost {
		if total[i] > 0 {
			res.LossByOffset = append(res.LossByOffset, float64(lost[i])/float64(total[i]))
		} else {
			res.LossByOffset = append(res.LossByOffset, 0)
		}
	}
	if earlyTotal > 0 {
		res.EarlyLoss = float64(earlyLost) / float64(earlyTotal)
	}
	if steadyTotal > 0 {
		res.SteadyLoss = float64(steadyLost) / float64(steadyTotal)
	}
	return res, nil
}

// MotionResult quantifies the paper's §3 argument that satellite
// motion cannot explain the 15-second latency regime changes: within a
// slot the serving satellite's propagation delay drifts by a fraction
// of a millisecond, while reallocation to a different satellite jumps
// it by several.
type MotionResult struct {
	// MedianMotionDriftMs is the median |propagation-RTT change| from
	// the serving satellite's own movement across one 15 s slot.
	MedianMotionDriftMs float64
	// MedianReallocJumpMs is the median |propagation-RTT change| across
	// slot boundaries where the satellite changed.
	MedianReallocJumpMs float64
	// Ratio is jump / drift.
	Ratio float64
	// Slots and Handovers count the samples behind each median.
	Slots, Handovers int
}

// MotionVsReallocation measures propagation-only RTT (no jitter, no
// MAC) at both edges of every slot for one terminal.
func (e *Env) MotionVsReallocation(terminalName string, slots int) (*MotionResult, error) {
	if terminalName == "" {
		terminalName = "Iowa"
	}
	if slots == 0 {
		slots = 200
	}
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	pop, ok := geo.PoPByName(term.PoP)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown PoP %q", term.PoP)
	}

	// Propagation-only RTT for a satellite at time t, in ms.
	propRTT := func(satID int, t time.Time) (float64, error) {
		sat := e.Cons.ByID(satID)
		if sat == nil {
			return 0, fmt.Errorf("experiments: unknown satellite %d", satID)
		}
		st, err := sat.Propagator.PropagateAt(t)
		if err != nil {
			return 0, err
		}
		ecef, _ := astro.TEMEToECEF(st.Pos, st.Vel, t)
		up := ecef.Sub(term.Location.ToECEF()).Norm()
		down := ecef.Sub(pop.Location.ToECEF()).Norm()
		return 2 * (up + down) / units.SpeedOfLightKmPerSec * 1000, nil
	}

	var drifts, jumps []float64
	prevID := 0
	prevEndRTT := 0.0
	start := e.Start()
	for i := 0; i < slots; i++ {
		slotStart := start.Add(time.Duration(i) * scheduler.Period)
		var alloc scheduler.Allocation
		for _, a := range e.Sched.Allocate(slotStart) {
			if a.Terminal == term.Name {
				alloc = a
			}
		}
		if alloc.SatID == 0 {
			prevID = 0
			continue
		}
		rttStart, err1 := propRTT(alloc.SatID, slotStart)
		rttEnd, err2 := propRTT(alloc.SatID, slotStart.Add(scheduler.Period))
		if err1 != nil || err2 != nil {
			prevID = 0
			continue
		}
		drifts = append(drifts, math.Abs(rttEnd-rttStart))
		if prevID != 0 && prevID != alloc.SatID {
			jumps = append(jumps, math.Abs(rttStart-prevEndRTT))
		}
		prevID = alloc.SatID
		prevEndRTT = rttEnd
	}
	if len(drifts) == 0 || len(jumps) == 0 {
		return nil, fmt.Errorf("experiments: motion analysis needs served slots (%d) and handovers (%d)", len(drifts), len(jumps))
	}
	res := &MotionResult{
		MedianMotionDriftMs: stats.Median(drifts),
		MedianReallocJumpMs: stats.Median(jumps),
		Slots:               len(drifts),
		Handovers:           len(jumps),
	}
	if res.MedianMotionDriftMs > 0 {
		res.Ratio = res.MedianReallocJumpMs / res.MedianMotionDriftMs
	}
	return res, nil
}
