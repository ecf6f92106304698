package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/astro"
	"repro/internal/geo"
	"repro/internal/scheduler"
	"repro/internal/stats"
	"repro/internal/units"
)

// Single-environment extensions of the paper's §3 latency argument.
// The §8 comparisons between environments (hemispheres, GSO ablation,
// load sensitivity) live in scenario, next to the spec they edit.

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
	term, err := e.terminal(terminalName)
	if err != nil {
		return nil, err
	}
	samples, err := e.trace(term, dur)
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
	// Slots and Handovers count the samples behind each median. A run
	// with no handover (Handovers == 0) leaves the medians and Ratio
	// zero: the comparison is not computable.
	Slots, Handovers int
}

// MotionVsReallocation measures propagation-only RTT (no jitter, no
// MAC) at both edges of every slot for one terminal. A short run may
// see no handover; it then returns the sample counts with zero medians
// rather than an error.
func (e *Env) MotionVsReallocation(terminalName string, slots int) (*MotionResult, error) {
	if slots < 1 {
		return nil, fmt.Errorf("experiments: motion analysis needs slots > 0, got %d", slots)
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
		ecef := astro.FrameAt(t).ToECEF(st.Pos)
		up := ecef.Sub(term.Location.ToECEF()).Norm()
		down := ecef.Sub(pop.Location.ToECEF()).Norm()
		return 2 * (up + down) / units.SpeedOfLightKmPerSec * 1000, nil
	}

	var drifts, jumps []float64
	var allocs []scheduler.Allocation
	prevID := 0
	prevEndRTT := 0.0
	start := e.Start()
	for i := 0; i < slots; i++ {
		slotStart := start.Add(time.Duration(i) * scheduler.Period)
		alloc := e.allocation(&allocs, term.Name, slotStart)
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
	res := &MotionResult{Slots: len(drifts), Handovers: len(jumps)}
	if len(jumps) == 0 {
		return res, nil
	}
	res.MedianMotionDriftMs = stats.Median(drifts)
	res.MedianReallocJumpMs = stats.Median(jumps)
	if res.MedianMotionDriftMs > 0 {
		res.Ratio = res.MedianReallocJumpMs / res.MedianMotionDriftMs
	}
	return res, nil
}
