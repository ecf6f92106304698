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

// floatSeries is a float64 series kept in blocks that double from
// minBlock up to maxBlock values, so growing it never copies what it
// already holds. Finalize reads it in place: ecdf sorts each block
// where it lies, so the series keeps its values but not their order.
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

// pool adds o's blocks to s without copying their values. A pooled
// series is read, never added to: its last block may be o's.
func (s *floatSeries) pool(o *floatSeries) {
	s.blocks = append(s.blocks, o.blocks...)
	s.n += o.n
}

// ecdf is the series' ECDF over its blocks, each sorted in place.
func (s *floatSeries) ecdf() (*stats.ECDF, error) {
	return stats.NewECDF(s.blocks...)
}

// count counts the values for which pred holds.
func (s *floatSeries) count(pred func(float64) bool) int {
	n := 0
	for _, b := range s.blocks {
		for _, v := range b {
			if pred(v) {
				n++
			}
		}
	}
	return n
}

// share is the fraction of the series for which pred holds, NaN when
// it is empty (stats.Proportion of the series).
func (s *floatSeries) share(pred func(float64) bool) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return float64(s.count(pred)) / float64(s.n)
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
	if o.ChosenIdx < 0 || o.ChosenIdx >= len(o.Available) {
		return
	}
	slot := ts.terms[o.Terminal]
	if slot == nil {
		slot = &termSlot{}
		ts.terms[o.Terminal] = slot
	}
	slot.chosen.add(value(&o.Available[o.ChosenIdx]))
	for i := range o.Available {
		slot.avail.add(value(&o.Available[i]))
	}
}

// cdf renders the terminal's available and chosen CDFs and their
// medians, sorting each series' blocks in place.
func (slot *termSlot) cdf(name string, points int) (TerminalCDF, error) {
	ea, err := slot.avail.ecdf()
	if err != nil {
		return TerminalCDF{}, fmt.Errorf("core: %s available: %w", name, err)
	}
	ec, err := slot.chosen.ecdf()
	if err != nil {
		return TerminalCDF{}, fmt.Errorf("core: %s chosen: %w", name, err)
	}
	return TerminalCDF{
		Terminal:        name,
		Available:       ea.Points(points),
		Chosen:          ec.Points(points),
		MedianAvailable: ea.Median(),
		MedianChosen:    ec.Median(),
	}, nil
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
	// The high-band shares pool every terminal's values.
	var allChosen, allAvail floatSeries
	for _, name := range names {
		slot := a.series.terms[name]
		tc, err := slot.cdf(name, a.points)
		if err != nil {
			return nil, err
		}
		out.PerTerminal = append(out.PerTerminal, tc)
		out.MedianLiftDeg += tc.MedianChosen - tc.MedianAvailable
		allChosen.pool(&slot.chosen)
		allAvail.pool(&slot.avail)
	}
	out.MedianLiftDeg /= float64(len(out.PerTerminal))
	high := func(v float64) bool { return v >= 45 }
	out.HighBandChosenFrac = allChosen.share(high)
	out.HighBandAvailableFrac = allAvail.share(high)
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
		tc, err := slot.cdf(name, a.points)
		if err != nil {
			return nil, err
		}
		out.PerTerminal = append(out.PerTerminal, tc)
		out.NorthChosenFrac[name] = slot.chosen.share(isNorth)
		out.NorthAvailableFrac[name] = slot.avail.share(isNorth)
		out.NWChosenFrac[name] = slot.chosen.share(func(az float64) bool { return quadrant(az) == "NW" })
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
		if e, err := s.ecdf(); err == nil {
			return e.Points(a.points)
		}
		return nil
	}
	// The pooled chosen series hold every terminal's blocks.
	var darkChosenAll, sunlitChosenAll floatSeries
	for _, name := range names {
		acc := a.terms[name]
		out.PerTerminal = append(out.PerTerminal, SunlitCDFs{
			Terminal:     name,
			DarkChosen:   cdf(&acc.dc),
			SunlitChosen: cdf(&acc.sc),
			DarkAvail:    cdf(&acc.da),
			SunlitAvail:  cdf(&acc.sa),
		})
		darkChosenAll.pool(&acc.dc)
		sunlitChosenAll.pool(&acc.sc)
	}
	if out.MixedSlots > 0 {
		out.SunlitPickRate = float64(a.sunlitPicks) / float64(out.MixedSlots)
	}
	if !a.darkPicked {
		out.MinDarkShareWhenDarkPicked = 0
	}
	high60 := func(v float64) bool { return v > 60 }
	out.HighAOEFracDark = darkChosenAll.share(high60)
	out.HighAOEFracSunlit = sunlitChosenAll.share(high60)
	if dark, err := darkChosenAll.ecdf(); err == nil {
		if sunlit, err := sunlitChosenAll.ecdf(); err == nil {
			out.DarkChosenAOELiftDeg = dark.Median() - sunlit.Median()
		}
	}
	return out, nil
}
