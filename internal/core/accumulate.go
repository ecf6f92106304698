package core

import (
	"fmt"
	"math"
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

// floatSeries is an append-only float64 series kept in blocks that
// double from minBlock up to maxBlock values, so growing it never
// copies what it already holds. values copies it out once, in
// insertion order.
type floatSeries struct {
	blocks [][]float64
	n      int
}

const (
	minBlock = 8
	maxBlock = 256
)

func (s *floatSeries) add(v float64) {
	n := len(s.blocks)
	if n == 0 || len(s.blocks[n-1]) == cap(s.blocks[n-1]) {
		size := minBlock
		if n > 0 {
			size = min(2*cap(s.blocks[n-1]), maxBlock)
		}
		s.blocks = append(s.blocks, make([]float64, 0, size))
		n++
	}
	s.blocks[n-1] = append(s.blocks[n-1], v)
	s.n++
}

// appendTo appends the series to dst in insertion order.
func (s *floatSeries) appendTo(dst []float64) []float64 {
	for _, b := range s.blocks {
		dst = append(dst, b...)
	}
	return dst
}

// values returns the series as one exact-size slice the caller owns.
func (s *floatSeries) values() []float64 {
	return s.appendTo(make([]float64, 0, s.n))
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
	chosen, avail floatSeries
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
	slot.chosen.add(value(&c))
	for i := range o.Available {
		slot.avail.add(value(&o.Available[i]))
	}
}

// cdf builds the terminal's CDFs from one sorted copy of each series
// and returns those sorted values too.
func (slot *termSlot) cdf(name string, points int) (tc TerminalCDF, avail, chosen []float64, err error) {
	avail, chosen = slot.avail.values(), slot.chosen.values()
	tc, err = buildCDF(name, avail, chosen, points)
	return tc, avail, chosen, err
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
	// The high-band shares pool every terminal's values: count them
	// per terminal and divide once.
	high := func(v float64) bool { return v >= 45 }
	var nChosen, nAvail, highChosen, highAvail int
	for _, name := range names {
		tc, avail, chosen, err := a.series.terms[name].cdf(name, a.points)
		if err != nil {
			return nil, err
		}
		out.PerTerminal = append(out.PerTerminal, tc)
		out.MedianLiftDeg += tc.MedianChosen - tc.MedianAvailable
		nChosen, highChosen = nChosen+len(chosen), highChosen+countIf(chosen, high)
		nAvail, highAvail = nAvail+len(avail), highAvail+countIf(avail, high)
	}
	out.MedianLiftDeg /= float64(len(out.PerTerminal))
	out.HighBandChosenFrac = share(highChosen, nChosen)
	out.HighBandAvailableFrac = share(highAvail, nAvail)
	return out, nil
}

// countIf counts the values for which pred holds.
func countIf(xs []float64, pred func(float64) bool) int {
	n := 0
	for _, x := range xs {
		if pred(x) {
			n++
		}
	}
	return n
}

// share is k/n, NaN when n is 0 (stats.Proportion of a pooled series).
func share(k, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(k) / float64(n)
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
		tc, avail, chosen, err := a.series.terms[name].cdf(name, a.points)
		if err != nil {
			return nil, err
		}
		out.PerTerminal = append(out.PerTerminal, tc)
		out.NorthChosenFrac[name] = stats.Proportion(chosen, isNorth)
		out.NorthAvailableFrac[name] = stats.Proportion(avail, isNorth)
		out.NWChosenFrac[name] = stats.Proportion(chosen, func(az float64) bool { return quadrant(az) == "NW" })
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

// sunlitTermAcc is one terminal's accumulated Figure 7 series: dark
// and sunlit chosen, dark and sunlit available.
type sunlitTermAcc struct {
	dc, sc, da, sa floatSeries
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
			acc.sa.add(s.ElevationDeg)
		} else {
			acc.da.add(s.ElevationDeg)
		}
	}
	if c.Sunlit {
		a.sunlitPicks++
		acc.sc.add(c.ElevationDeg)
	} else {
		a.darkPicked = true
		acc.dc.add(c.ElevationDeg)
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
	// Some series can legitimately be empty (a terminal may never pick
	// a dark satellite); only build the non-empty ones.
	cdf := func(s *floatSeries) [][2]float64 {
		if e, err := stats.NewECDF(s.values()); err == nil {
			return e.Points(a.points)
		}
		return nil
	}
	// The global chosen series concatenate per terminal in sorted-name
	// order.
	var darkChosenAll, sunlitChosenAll []float64
	for _, name := range names {
		acc := a.terms[name]
		out.PerTerminal = append(out.PerTerminal, SunlitCDFs{
			Terminal:     name,
			DarkChosen:   cdf(&acc.dc),
			SunlitChosen: cdf(&acc.sc),
			DarkAvail:    cdf(&acc.da),
			SunlitAvail:  cdf(&acc.sa),
		})
		darkChosenAll = acc.dc.appendTo(darkChosenAll)
		sunlitChosenAll = acc.sc.appendTo(sunlitChosenAll)
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
