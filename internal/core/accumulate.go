package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
)

// ObservationConsumer is the incremental interface behind every §5
// analysis and the §6 feature builder: observations are pushed one at
// a time (in stream order) instead of materialized as a slice, so a
// streaming campaign can analyze itself as it runs. Each concrete
// accumulator pairs Add with a Finalize method producing its figure's
// result type.
type ObservationConsumer interface {
	// Add folds one observation in. Implementations only read o and
	// the slices it carries during the call; nothing is retained, so
	// callers may reuse backing arrays. A non-nil error aborts the
	// stream.
	Add(o Observation) error
}

// terminalSeries collects per-terminal float series: values append in
// stream order per terminal, and finalization visits terminals in
// sorted-name order, so the float arithmetic downstream never depends
// on map iteration order.
type terminalSeries struct {
	seen  int // observations added, with or without a chosen satellite
	terms map[string]*termSlot
}

type termSlot struct {
	chosen, avail []float64
}

func newTerminalSeries() terminalSeries {
	return terminalSeries{terms: map[string]*termSlot{}}
}

// add records one chosen value and the full available series for the
// observation's terminal; observations without a chosen satellite only
// bump the seen counter.
func (ts *terminalSeries) add(o *Observation, value func(*SatObs) float64) {
	ts.seen++
	c, ok := o.Chosen()
	if !ok {
		return
	}
	slot := ts.terms[o.Terminal]
	if slot == nil {
		slot = &termSlot{}
		ts.terms[o.Terminal] = slot
	}
	slot.chosen = append(slot.chosen, value(&c))
	for i := range o.Available {
		slot.avail = append(slot.avail, value(&o.Available[i]))
	}
}

// names returns the terminals in sorted order, or an error when
// nothing usable accumulated.
func (ts *terminalSeries) names() ([]string, error) {
	if ts.seen == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if len(ts.terms) == 0 {
		return nil, fmt.Errorf("core: no observations with an identified chosen satellite")
	}
	names := make([]string, 0, len(ts.terms))
	for n := range ts.terms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// AOEAccumulator builds the Figure 4 analysis incrementally. Feed it
// observations with Add, then call Finalize once.
type AOEAccumulator struct {
	points int
	series terminalSeries
}

// NewAOEAccumulator returns an accumulator rendering CDFs with
// cdfPoints points.
func NewAOEAccumulator(cdfPoints int) *AOEAccumulator {
	return &AOEAccumulator{points: cdfPoints, series: newTerminalSeries()}
}

// Add folds in one observation.
func (a *AOEAccumulator) Add(o Observation) error {
	a.series.add(&o, func(s *SatObs) float64 { return s.ElevationDeg })
	return nil
}

// Finalize computes the Figure 4 series from the accumulated state.
func (a *AOEAccumulator) Finalize() (*AOEAnalysis, error) {
	names, err := a.series.names()
	if err != nil {
		return nil, err
	}
	out := &AOEAnalysis{}
	var allChosen, allAvail []float64
	for _, name := range names {
		slot := a.series.terms[name]
		tc, err := buildCDF(name, slot.avail, slot.chosen, a.points)
		if err != nil {
			return nil, err
		}
		out.PerTerminal = append(out.PerTerminal, tc)
		out.MedianLiftDeg += tc.MedianChosen - tc.MedianAvailable
		allChosen = append(allChosen, slot.chosen...)
		allAvail = append(allAvail, slot.avail...)
	}
	out.MedianLiftDeg /= float64(len(out.PerTerminal))
	high := func(v float64) bool { return v >= 45 }
	out.HighBandChosenFrac = stats.Proportion(allChosen, high)
	out.HighBandAvailableFrac = stats.Proportion(allAvail, high)
	return out, nil
}

// AzimuthAccumulator builds the Figure 5 analysis incrementally.
type AzimuthAccumulator struct {
	points int
	series terminalSeries
}

// NewAzimuthAccumulator returns an accumulator rendering CDFs with
// cdfPoints points.
func NewAzimuthAccumulator(cdfPoints int) *AzimuthAccumulator {
	return &AzimuthAccumulator{points: cdfPoints, series: newTerminalSeries()}
}

// Add folds in one observation.
func (a *AzimuthAccumulator) Add(o Observation) error {
	a.series.add(&o, func(s *SatObs) float64 { return s.AzimuthDeg })
	return nil
}

// Finalize computes the Figure 5 series from the accumulated state.
func (a *AzimuthAccumulator) Finalize() (*AzimuthAnalysis, error) {
	names, err := a.series.names()
	if err != nil {
		return nil, err
	}
	out := &AzimuthAnalysis{
		NorthChosenFrac:    map[string]float64{},
		NorthAvailableFrac: map[string]float64{},
		NWChosenFrac:       map[string]float64{},
	}
	for _, name := range names {
		slot := a.series.terms[name]
		tc, err := buildCDF(name, slot.avail, slot.chosen, a.points)
		if err != nil {
			return nil, err
		}
		out.PerTerminal = append(out.PerTerminal, tc)
		north := func(az float64) bool { return isNorth(az) }
		out.NorthChosenFrac[name] = stats.Proportion(slot.chosen, north)
		out.NorthAvailableFrac[name] = stats.Proportion(slot.avail, north)
		out.NWChosenFrac[name] = stats.Proportion(slot.chosen, func(az float64) bool { return quadrant(az) == "NW" })
	}
	return out, nil
}

// LaunchAccumulator builds the Figure 6 analysis incrementally. Unlike the CDF
// accumulators its state is O(terminals × launch months) — genuinely
// constant for campaigns of any length.
type LaunchAccumulator struct {
	excluded []string
	seen     int
	bins     map[string]map[time.Time]*LaunchBin
}

// NewLaunchAccumulator returns an accumulator; excluded names
// terminals left out of the mean correlation (the paper excludes New
// York).
func NewLaunchAccumulator(excluded ...string) *LaunchAccumulator {
	return &LaunchAccumulator{excluded: excluded, bins: map[string]map[time.Time]*LaunchBin{}}
}

// Add folds in one observation.
func (a *LaunchAccumulator) Add(o Observation) error {
	a.seen++
	c, ok := o.Chosen()
	if !ok {
		return nil
	}
	bins := a.bins[o.Terminal]
	if bins == nil {
		bins = map[time.Time]*LaunchBin{}
		a.bins[o.Terminal] = bins
	}
	for _, s := range o.Available {
		key := monthOf(s.LaunchDate)
		b := bins[key]
		if b == nil {
			b = &LaunchBin{Month: key}
			bins[key] = b
		}
		b.Available++
	}
	bins[monthOf(c.LaunchDate)].Picked++
	return nil
}

// Finalize computes the Figure 6 series from the accumulated state.
func (a *LaunchAccumulator) Finalize() (*LaunchAnalysis, error) {
	if a.seen == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if len(a.bins) == 0 {
		return nil, fmt.Errorf("core: no observations with an identified chosen satellite")
	}
	names := make([]string, 0, len(a.bins))
	for n := range a.bins {
		names = append(names, n)
	}
	sort.Strings(names)
	skip := map[string]bool{}
	for _, e := range a.excluded {
		skip[e] = true
	}
	out := &LaunchAnalysis{
		PerTerminal: map[string][]LaunchBin{},
		Pearson:     map[string]float64{},
		Excluded:    a.excluded,
	}
	n := 0
	for _, name := range names {
		bins := a.bins[name]
		list := make([]LaunchBin, 0, len(bins))
		for _, b := range bins {
			if b.Available > 0 {
				b.Ratio = float64(b.Picked) / float64(b.Available)
			}
			list = append(list, *b)
		}
		sort.Slice(list, func(i, j int) bool { return list[i].Month.Before(list[j].Month) })
		out.PerTerminal[name] = list

		if len(list) >= 2 {
			x := make([]float64, len(list))
			y := make([]float64, len(list))
			for i, b := range list {
				x[i] = b.Month.Sub(list[0].Month).Hours() / (24 * 30.44)
				y[i] = b.Ratio
			}
			if r, err := stats.Pearson(x, y); err == nil {
				out.Pearson[name] = r
				if !skip[name] {
					out.MeanPearson += r
					n++
				}
			}
		}
	}
	if n > 0 {
		out.MeanPearson /= float64(n)
	}
	return out, nil
}

// sunlitTermAcc is one terminal's accumulated Figure 7 series.
type sunlitTermAcc struct {
	dc, sc, da, sa []float64
}

// SunlitAccumulator builds the §5.3 / Figure 7 analysis incrementally.
type SunlitAccumulator struct {
	points       int
	seen         int
	terms        map[string]*sunlitTermAcc
	mixedSlots   int
	sunlitPicks  int
	darkPicked   bool
	minDarkShare float64
}

// NewSunlitAccumulator returns an accumulator rendering CDFs with
// cdfPoints points.
func NewSunlitAccumulator(cdfPoints int) *SunlitAccumulator {
	return &SunlitAccumulator{points: cdfPoints, terms: map[string]*sunlitTermAcc{}, minDarkShare: 1}
}

// Add folds in one observation.
func (a *SunlitAccumulator) Add(o Observation) error {
	a.seen++
	c, ok := o.Chosen()
	if !ok {
		return nil
	}
	acc := a.terms[o.Terminal]
	if acc == nil {
		acc = &sunlitTermAcc{}
		a.terms[o.Terminal] = acc
	}
	nDark, nSunlit := 0, 0
	for _, s := range o.Available {
		if s.Sunlit {
			nSunlit++
		} else {
			nDark++
		}
	}
	if nDark == 0 || nSunlit == 0 {
		return nil // not a mixed slot
	}
	a.mixedSlots++
	for _, s := range o.Available {
		if s.Sunlit {
			acc.sa = append(acc.sa, s.ElevationDeg)
		} else {
			acc.da = append(acc.da, s.ElevationDeg)
		}
	}
	if c.Sunlit {
		a.sunlitPicks++
		acc.sc = append(acc.sc, c.ElevationDeg)
	} else {
		a.darkPicked = true
		acc.dc = append(acc.dc, c.ElevationDeg)
		share := float64(nDark) / float64(nDark+nSunlit)
		if share < a.minDarkShare {
			a.minDarkShare = share
		}
	}
	return nil
}

// Finalize computes the Figure 7 series from the accumulated state.
func (a *SunlitAccumulator) Finalize() (*SunlitAnalysis, error) {
	if a.seen == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if len(a.terms) == 0 {
		return nil, fmt.Errorf("core: no observations with an identified chosen satellite")
	}
	names := make([]string, 0, len(a.terms))
	for n := range a.terms {
		names = append(names, n)
	}
	sort.Strings(names)
	out := &SunlitAnalysis{MixedSlots: a.mixedSlots, MinDarkShareWhenDarkPicked: a.minDarkShare}
	// The global chosen series concatenate per terminal in sorted-name
	// order.
	var darkChosenAll, sunlitChosenAll []float64
	for _, name := range names {
		acc := a.terms[name]
		cdfs := SunlitCDFs{Terminal: name}
		// Some series can legitimately be empty (a terminal may never
		// pick a dark satellite); only build the non-empty ones.
		if e, err := stats.NewECDF(acc.dc); err == nil {
			cdfs.DarkChosen = e.Points(a.points)
		}
		if e, err := stats.NewECDF(acc.sc); err == nil {
			cdfs.SunlitChosen = e.Points(a.points)
		}
		if e, err := stats.NewECDF(acc.da); err == nil {
			cdfs.DarkAvail = e.Points(a.points)
		}
		if e, err := stats.NewECDF(acc.sa); err == nil {
			cdfs.SunlitAvail = e.Points(a.points)
		}
		out.PerTerminal = append(out.PerTerminal, cdfs)
		darkChosenAll = append(darkChosenAll, acc.dc...)
		sunlitChosenAll = append(sunlitChosenAll, acc.sc...)
	}
	if out.MixedSlots > 0 {
		out.SunlitPickRate = float64(a.sunlitPicks) / float64(out.MixedSlots)
	}
	if !a.darkPicked {
		out.MinDarkShareWhenDarkPicked = 0
	}
	high60 := func(v float64) bool { return v > 60 }
	out.HighAOEFracDark = stats.Proportion(darkChosenAll, high60)
	out.HighAOEFracSunlit = stats.Proportion(sunlitChosenAll, high60)
	if len(darkChosenAll) > 0 && len(sunlitChosenAll) > 0 {
		out.DarkChosenAOELiftDeg = stats.Median(darkChosenAll) - stats.Median(sunlitChosenAll)
	}
	return out, nil
}
