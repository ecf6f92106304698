package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/stats"
)

// TestAccumulatorsMatchBatch: each accumulator, fed one observation
// at a time alongside the others (as a campaign's consumer list feeds
// them), finalizes to exactly what it does fed the slice alone
// (reflect.DeepEqual covers every float bit).
func TestAccumulatorsMatchBatch(t *testing.T) {
	setupFixture(t)
	obs := fixture.obs

	aoeAcc := NewAOEAccumulator(27)
	azAcc := NewAzimuthAccumulator(27)
	laAcc := NewLaunchAccumulator("New York")
	suAcc := NewSunlitAccumulator(27)
	dsAcc := NewDatasetBuilder()
	for _, o := range obs {
		for _, acc := range []ObservationConsumer{aoeAcc, azAcc, laAcc, suAcc, dsAcc} {
			if err := acc.Add(o); err != nil {
				t.Fatal(err)
			}
		}
	}

	aoeB, err := AnalyzeAOE(obs, 27)
	if err != nil {
		t.Fatal(err)
	}
	aoeS, err := aoeAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aoeS, aoeB) {
		t.Error("AOE accumulator diverges from batch")
	}

	azB, err := AnalyzeAzimuth(obs, 27)
	if err != nil {
		t.Fatal(err)
	}
	azS, err := azAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(azS, azB) {
		t.Error("azimuth accumulator diverges from batch")
	}

	laB, err := AnalyzeLaunch(obs, "New York")
	if err != nil {
		t.Fatal(err)
	}
	laS, err := laAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(laS, laB) {
		t.Error("launch accumulator diverges from batch")
	}

	suB, err := AnalyzeSunlit(obs, 27)
	if err != nil {
		t.Fatal(err)
	}
	suS, err := suAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(suS, suB) {
		t.Error("sunlit accumulator diverges from batch")
	}

	dsB, err := BuildDataset(obs)
	if err != nil {
		t.Fatal(err)
	}
	dsS, err := dsAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dsS, dsB) {
		t.Error("dataset builder diverges from batch")
	}
}

// TestAccumulatorErrorParity keeps the historical batch error messages
// on empty and all-unidentified streams.
func TestAccumulatorErrorParity(t *testing.T) {
	finalizers := map[string]func() error{
		"aoe": func() error { _, err := NewAOEAccumulator(9).Finalize(); return err },
		"az":  func() error { _, err := NewAzimuthAccumulator(9).Finalize(); return err },
		"la":  func() error { _, err := NewLaunchAccumulator().Finalize(); return err },
		"su":  func() error { _, err := NewSunlitAccumulator(9).Finalize(); return err },
	}
	for name, f := range finalizers {
		if err := f(); err == nil || !strings.Contains(err.Error(), "no observations") {
			t.Errorf("%s: empty finalize error = %v", name, err)
		}
	}
	noChosen := Observation{Terminal: "x", Available: []SatObs{{ID: 1}}, ChosenIdx: -1}
	acc := NewAOEAccumulator(9)
	if err := acc.Add(noChosen); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Finalize(); err == nil || !strings.Contains(err.Error(), "identified chosen") {
		t.Errorf("all-unidentified finalize error = %v", err)
	}
	b := NewDatasetBuilder()
	if _, err := b.Finalize(); err == nil || !strings.Contains(err.Error(), "no usable observations") {
		t.Errorf("empty dataset finalize error = %v", err)
	}
	// A chosen observation with an empty available set is a data bug:
	// Add must surface it, not panic downstream.
	if err := b.Add(Observation{Terminal: "x", ChosenIdx: 0}); err != nil {
		t.Error("ChosenIdx beyond empty available should be skipped (Chosen() is false), got", err)
	}
}

// The slice-fed analyses this package's tests use: each feeds a fixture
// slice through the matching accumulator.

func AnalyzeAOE(obs []Observation, cdfPoints int) (*AOEAnalysis, error) {
	acc := NewAOEAccumulator(cdfPoints)
	feedAll(acc, obs)
	return acc.Finalize()
}

func AnalyzeAzimuth(obs []Observation, cdfPoints int) (*AzimuthAnalysis, error) {
	acc := NewAzimuthAccumulator(cdfPoints)
	feedAll(acc, obs)
	return acc.Finalize()
}

func AnalyzeLaunch(obs []Observation, excluded ...string) (*LaunchAnalysis, error) {
	acc := NewLaunchAccumulator(excluded...)
	feedAll(acc, obs)
	return acc.Finalize()
}

func AnalyzeSunlit(obs []Observation, cdfPoints int) (*SunlitAnalysis, error) {
	acc := NewSunlitAccumulator(cdfPoints)
	feedAll(acc, obs)
	return acc.Finalize()
}

// feedAll pushes a slice through a §5 accumulator, whose Add never
// errors.
func feedAll(acc ObservationConsumer, obs []Observation) {
	for i := range obs {
		_ = acc.Add(obs[i])
	}
}

// BuildDataset feeds a slice through a DatasetBuilder.
func BuildDataset(obs []Observation) (*ml.Dataset, error) {
	b := NewDatasetBuilder()
	for i := range obs {
		if err := b.Add(obs[i]); err != nil {
			return nil, err
		}
	}
	return b.Finalize()
}

// TestAccumulatorsHandWorked feeds the §5 accumulators a small
// observation set whose figures are worked out by hand below, so a
// wrong figure fails here and not only in the goldens. Each satellite
// is (elevation°, azimuth°, sunlit); * marks the chosen one.
//
//	A1: (30, 10, lit) (50, 100, dark) *(70, 200, lit)   mixed, lit pick
//	A2: (40, 350, lit) *(60, 80, lit)                   all lit
//	A3: *(20, 300, dark) (45, 150, lit)                 mixed, dark pick, dark share 1/2
//	A4: (35, 0, lit), nothing chosen                    counted as seen only
//	B1: (25, 45, dark) *(55, 270, lit)                  mixed, lit pick
//	B2: (35, 10, dark) (65, 190, dark) *(80, 359, dark) all dark
//
// AOE: A chose 70, 60, 20 (median 60) of 20 30 40 45 50 60 70 (median
// 45), a lift of 15°; B chose 55, 80 (median 67.5) of 25 35 55 65 80
// (median 55), a lift of 12.5°. The lift averages the terminals:
// 13.75°. At or above 45°: 4 of the 5 chosen (70, 60, 55, 80) and 7 of
// the 12 available (50, 70, 60, 45, 55, 65, 80).
//
// Azimuth: north is NE (below 90°) or NW (270° and up). A chose 200,
// 80, 300: 2 of 3 north, 1 of 3 NW; of its 7 available 10, 350, 80, 300
// are north. B chose 270 and 359: both north and NW; of its 5 available
// all but 190 are north.
//
// Sunlit: A1, A3 and B1 are the mixed slots with a choice (A4 chose
// nothing); 2 of their 3 picks are sunlit. The one dark pick, A3, had
// half its satellites dark. Dark picks in mixed slots: 20 (median 20);
// sunlit: 70, 55 (median 62.5), so dark picks sit 42.5° lower; above
// 60°: none of the dark, one of the two sunlit.
func TestAccumulatorsHandWorked(t *testing.T) {
	type sat struct {
		el, az float64
		lit    bool
	}
	slot := func(term string, chosen int, sats ...sat) Observation {
		o := Observation{Terminal: term, ChosenIdx: chosen}
		for i, s := range sats {
			o.Available = append(o.Available, SatObs{ID: 100 + i, ElevationDeg: s.el, AzimuthDeg: s.az, Sunlit: s.lit})
		}
		return o
	}
	obs := []Observation{
		slot("A", 2, sat{30, 10, true}, sat{50, 100, false}, sat{70, 200, true}),
		slot("A", 1, sat{40, 350, true}, sat{60, 80, true}),
		slot("A", 0, sat{20, 300, false}, sat{45, 150, true}),
		slot("A", -1, sat{35, 0, true}),
		slot("B", 1, sat{25, 45, false}, sat{55, 270, true}),
		slot("B", 2, sat{35, 10, false}, sat{65, 190, false}, sat{80, 359, false}),
	}
	aoeAcc, azAcc, suAcc := NewAOEAccumulator(5), NewAzimuthAccumulator(5), NewSunlitAccumulator(5)
	for _, o := range obs {
		for _, acc := range []ObservationConsumer{aoeAcc, azAcc, suAcc} {
			if err := acc.Add(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}

	aoe, err := aoeAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	check("A median chosen AOE", aoe.PerTerminal[0].MedianChosen, 60)
	check("A median available AOE", aoe.PerTerminal[0].MedianAvailable, 45)
	check("B median chosen AOE", aoe.PerTerminal[1].MedianChosen, 67.5)
	check("B median available AOE", aoe.PerTerminal[1].MedianAvailable, 55)
	check("median AOE lift", aoe.MedianLiftDeg, 13.75)
	check("chosen at or above 45°", aoe.HighBandChosenFrac, 4.0/5)
	check("available at or above 45°", aoe.HighBandAvailableFrac, 7.0/12)

	az, err := azAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	check("A north share chosen", az.NorthChosenFrac["A"], 2.0/3)
	check("A north share available", az.NorthAvailableFrac["A"], 4.0/7)
	check("A NW share chosen", az.NWChosenFrac["A"], 1.0/3)
	check("B north share chosen", az.NorthChosenFrac["B"], 1)
	check("B north share available", az.NorthAvailableFrac["B"], 4.0/5)
	check("B NW share chosen", az.NWChosenFrac["B"], 1)

	su, err := suAcc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	check("mixed slots", float64(su.MixedSlots), 3)
	check("sunlit share of mixed-slot picks", su.SunlitPickRate, 2.0/3)
	check("smallest dark share with a dark pick", su.MinDarkShareWhenDarkPicked, 0.5)
	check("dark-pick AOE lift", su.DarkChosenAOELiftDeg, -42.5)
	check("dark picks above 60°", su.HighAOEFracDark, 0)
	check("sunlit picks above 60°", su.HighAOEFracSunlit, 0.5)
}

// TestFinalizeMatchesSliceReference holds the §5 accumulators, which
// keep each series in blocks and finalize them in place, to slice-fed
// references that collect plain appended slices and finalize by
// copying and sorting: refBuildCDF, whose ECDF (sortedECDF) and median
// each sort their own copy, and pooled shares and medians over
// concatenated series. Every float is compared bit for bit. The
// synthetic stream has series longer than several blocks and a
// terminal that never picks a dark satellite.
func TestFinalizeMatchesSliceReference(t *testing.T) {
	setupFixture(t)
	streams := map[string][]Observation{"fixture": fixture.obs, "synthetic": syntheticObservations(3000)}
	for name, obs := range streams {
		aoe, az, su := NewAOEAccumulator(27), NewAzimuthAccumulator(27), NewSunlitAccumulator(27)
		for _, o := range obs {
			for _, acc := range []ObservationConsumer{aoe, az, su} {
				if err := acc.Add(o); err != nil {
					t.Fatal(err)
				}
			}
		}
		gotAOE, err := aoe.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		gotAz, err := az.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		gotSu, err := su.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"AOE", gotAOE, refAOE(obs, 27)},
			{"azimuth", gotAz, refAzimuth(obs, 27)},
			{"sunlit", gotSu, refSunlit(obs, 27)},
		} {
			// %v prints each float in its shortest round-trip form, so
			// equal strings mean equal bits (NaN and -0 included).
			if g, w := fmt.Sprintf("%v", c.got), fmt.Sprintf("%v", c.want); g != w {
				t.Errorf("%s: %s Finalize differs from the slice-fed reference:\n got %s\nwant %s", name, c.what, g, w)
			}
		}
	}
}

// syntheticObservations draws n observations over three terminals;
// "dawn" never picks a dark satellite.
func syntheticObservations(n int) []Observation {
	rng := rand.New(rand.NewSource(3))
	terms := []string{"dusk", "dawn", "noon"}
	obs := make([]Observation, n)
	for i := range obs {
		o := Observation{Terminal: terms[i%len(terms)], ChosenIdx: -1}
		for k := 0; k < 5+rng.Intn(30); k++ {
			o.Available = append(o.Available, SatObs{
				ID:           k + 1,
				ElevationDeg: 25 + 65*rng.Float64(),
				AzimuthDeg:   360 * rng.Float64(),
				Sunlit:       rng.Intn(3) > 0,
			})
		}
		if rng.Intn(8) > 0 {
			o.ChosenIdx = rng.Intn(len(o.Available))
			if o.Terminal == "dawn" {
				o.Available[o.ChosenIdx].Sunlit = true
			}
		}
		obs[i] = o
	}
	return obs
}

// refBuildCDF is termSlot.cdf fed plain slices, with an ECDF and a
// median that each sort their own copy.
func refBuildCDF(name string, avail, chosen []float64, points int) TerminalCDF {
	return TerminalCDF{
		Terminal:        name,
		Available:       newSortedECDF(avail).points(points),
		Chosen:          newSortedECDF(chosen).points(points),
		MedianAvailable: stats.Median(avail),
		MedianChosen:    stats.Median(chosen),
	}
}

// refSeries collects each terminal's chosen and available values as
// plain slices, and returns the terminals in sorted order.
func refSeries(obs []Observation, value func(SatObs) float64) (names []string, chosen, avail map[string][]float64) {
	chosen, avail = map[string][]float64{}, map[string][]float64{}
	for _, o := range obs {
		c, ok := o.Chosen()
		if !ok {
			continue
		}
		chosen[o.Terminal] = append(chosen[o.Terminal], value(c))
		for _, a := range o.Available {
			avail[o.Terminal] = append(avail[o.Terminal], value(a))
		}
	}
	for n := range chosen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, chosen, avail
}

func refAOE(obs []Observation, points int) *AOEAnalysis {
	names, chosen, avail := refSeries(obs, func(s SatObs) float64 { return s.ElevationDeg })
	out := &AOEAnalysis{}
	var allChosen, allAvail []float64
	for _, name := range names {
		tc := refBuildCDF(name, avail[name], chosen[name], points)
		out.PerTerminal = append(out.PerTerminal, tc)
		out.MedianLiftDeg += tc.MedianChosen - tc.MedianAvailable
		allChosen = append(allChosen, chosen[name]...)
		allAvail = append(allAvail, avail[name]...)
	}
	out.MedianLiftDeg /= float64(len(out.PerTerminal))
	high := func(v float64) bool { return v >= 45 }
	out.HighBandChosenFrac = stats.Proportion(allChosen, high)
	out.HighBandAvailableFrac = stats.Proportion(allAvail, high)
	return out
}

func refAzimuth(obs []Observation, points int) *AzimuthAnalysis {
	names, chosen, avail := refSeries(obs, func(s SatObs) float64 { return s.AzimuthDeg })
	out := &AzimuthAnalysis{
		NorthChosenFrac:    map[string]float64{},
		NorthAvailableFrac: map[string]float64{},
		NWChosenFrac:       map[string]float64{},
	}
	for _, name := range names {
		out.PerTerminal = append(out.PerTerminal, refBuildCDF(name, avail[name], chosen[name], points))
		out.NorthChosenFrac[name] = stats.Proportion(chosen[name], isNorth)
		out.NorthAvailableFrac[name] = stats.Proportion(avail[name], isNorth)
		out.NWChosenFrac[name] = stats.Proportion(chosen[name], func(az float64) bool { return quadrant(az) == "NW" })
	}
	return out
}

func refSunlit(obs []Observation, points int) *SunlitAnalysis {
	type series struct{ dc, sc, da, sa []float64 }
	terms := map[string]*series{}
	out := &SunlitAnalysis{MinDarkShareWhenDarkPicked: 1}
	sunlitPicks, darkPicked := 0, false
	for _, o := range obs {
		c, ok := o.Chosen()
		if !ok {
			continue
		}
		acc := terms[o.Terminal]
		if acc == nil {
			acc = &series{}
			terms[o.Terminal] = acc
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
			continue
		}
		out.MixedSlots++
		for _, s := range o.Available {
			if s.Sunlit {
				acc.sa = append(acc.sa, s.ElevationDeg)
			} else {
				acc.da = append(acc.da, s.ElevationDeg)
			}
		}
		if c.Sunlit {
			sunlitPicks++
			acc.sc = append(acc.sc, c.ElevationDeg)
		} else {
			darkPicked = true
			acc.dc = append(acc.dc, c.ElevationDeg)
			out.MinDarkShareWhenDarkPicked = min(out.MinDarkShareWhenDarkPicked, float64(nDark)/float64(nDark+nSunlit))
		}
	}
	var names []string
	for n := range terms {
		names = append(names, n)
	}
	sort.Strings(names)
	points2 := func(xs []float64) [][2]float64 {
		if len(xs) == 0 {
			return nil
		}
		return newSortedECDF(xs).points(points)
	}
	var darkAll, sunlitAll []float64
	for _, name := range names {
		acc := terms[name]
		out.PerTerminal = append(out.PerTerminal, SunlitCDFs{
			Terminal:     name,
			DarkChosen:   points2(acc.dc),
			SunlitChosen: points2(acc.sc),
			DarkAvail:    points2(acc.da),
			SunlitAvail:  points2(acc.sa),
		})
		darkAll = append(darkAll, acc.dc...)
		sunlitAll = append(sunlitAll, acc.sc...)
	}
	if out.MixedSlots > 0 {
		out.SunlitPickRate = float64(sunlitPicks) / float64(out.MixedSlots)
	}
	if !darkPicked {
		out.MinDarkShareWhenDarkPicked = 0
	}
	high60 := func(v float64) bool { return v > 60 }
	out.HighAOEFracDark = stats.Proportion(darkAll, high60)
	out.HighAOEFracSunlit = stats.Proportion(sunlitAll, high60)
	if len(darkAll) > 0 && len(sunlitAll) > 0 {
		out.DarkChosenAOELiftDeg = stats.Median(darkAll) - stats.Median(sunlitAll)
	}
	return out
}
