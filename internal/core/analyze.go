package core

import "time"

// The §5 analyses' result types. Each is built by the matching
// accumulator (accumulate.go), fed one observation at a time from
// RunCampaignStream's emit or a -load-obs replay, so no analysis ever
// needs the campaign's observations as a slice.

// TerminalCDF pairs the available-vs-chosen empirical CDFs for one
// terminal — the solid and dotted line of one color in Figures 4/5/7.
type TerminalCDF struct {
	Terminal        string
	Available       [][2]float64
	Chosen          [][2]float64
	MedianAvailable float64
	MedianChosen    float64
}

// AOEAnalysis reproduces Figure 4: the angle-of-elevation distribution
// of chosen satellites sits far above that of available ones.
type AOEAnalysis struct {
	PerTerminal []TerminalCDF
	// MedianLiftDeg averages (median chosen − median available) across
	// terminals; the paper reports 22.9°.
	MedianLiftDeg float64
	// HighBandChosenFrac / HighBandAvailableFrac are the fractions with
	// AOE in [45°, 90°]; the paper reports ~80% vs ~30%.
	HighBandChosenFrac    float64
	HighBandAvailableFrac float64
}

// AzimuthAnalysis reproduces Figure 5: chosen azimuths skew north
// except where local obstructions intervene.
type AzimuthAnalysis struct {
	PerTerminal []TerminalCDF
	// NorthChosenFrac / NorthAvailableFrac are averaged over the
	// terminals in the given set (the paper: 82% vs 58%, excluding the
	// obstructed Ithaca site).
	NorthChosenFrac    map[string]float64
	NorthAvailableFrac map[string]float64
	// NWChosenFrac is the fraction of chosen satellites in the
	// northwest quadrant per terminal; the paper's Ithaca terminal
	// shows 9.7% vs 55.4% elsewhere.
	NWChosenFrac map[string]float64
}

// LaunchBin is one year-month launch batch's pick statistics.
type LaunchBin struct {
	Month     time.Time
	Picked    int // slots in which a satellite from this batch was picked
	Available int // slot-satellite pairs from this batch that were available
	Ratio     float64
}

// LaunchAnalysis reproduces Figure 6: the probability of picking a
// satellite rises with its launch date.
type LaunchAnalysis struct {
	PerTerminal map[string][]LaunchBin
	// Pearson correlates batch date (as months since the first batch)
	// with pick ratio, per terminal. The paper's mean (excluding the
	// obstructed NY site) is 0.41.
	Pearson     map[string]float64
	MeanPearson float64
	// Excluded lists terminals left out of the mean (obstructed sites).
	Excluded []string
}

func monthOf(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
}

// SunlitCDFs carries the four Figure 7 series for one terminal.
type SunlitCDFs struct {
	Terminal     string
	DarkChosen   [][2]float64
	SunlitChosen [][2]float64
	DarkAvail    [][2]float64
	SunlitAvail  [][2]float64
}

// SunlitAnalysis reproduces §5.3 and Figure 7.
type SunlitAnalysis struct {
	PerTerminal []SunlitCDFs
	// MixedSlots counts slots with at least one sunlit and one dark
	// satellite available.
	MixedSlots int
	// SunlitPickRate is the fraction of mixed slots where the scheduler
	// chose a sunlit satellite (paper: 72.3%).
	SunlitPickRate float64
	// MinDarkShareWhenDarkPicked is the smallest dark/available
	// fraction among mixed slots in which a dark satellite was chosen
	// (paper: dark picks only happen when ≥ 35% of availability is
	// dark).
	MinDarkShareWhenDarkPicked float64
	// HighAOEFracDark / HighAOEFracSunlit are the fractions of chosen
	// dark (resp. sunlit) satellites above 60° AOE (paper: 82% vs 54%).
	HighAOEFracDark   float64
	HighAOEFracSunlit float64
	// DarkChosenAOELiftDeg is the median chosen-dark AOE minus median
	// chosen-sunlit AOE (paper: ~29° averaged over locations).
	DarkChosenAOELiftDeg float64
}
