// Package core is the paper's primary contribution assembled into a
// pipeline: run a measurement campaign against terminals scheduled by
// an (opaque) global controller, identify the serving satellite each
// 15-second slot from obstruction-map diffs and public TLEs (§4),
// characterize the controller's preferences from the resulting
// chosen-vs-available sets (§5), and train an offline model that
// predicts the characteristics of the next allocation (§6).
//
// The package consumes only externally observable artifacts —
// obstruction maps, TLE-derived geometry, sunlit state, launch dates,
// wall-clock time. Ground-truth allocations from internal/scheduler
// are used exclusively to *validate* the identification (the paper's
// manual pilot study) and are plumbed separately so that misuse is
// visible in call signatures.
package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/units"
)

// SatObs is one available satellite's publicly observable features
// during a slot.
type SatObs struct {
	ID           int
	ElevationDeg float64
	AzimuthDeg   float64
	RangeKm      float64
	AgeYears     float64
	LaunchDate   time.Time
	Sunlit       bool
}

// Observation is one slot's chosen-vs-available record for one
// terminal: the inputs every §5 analysis and the §6 model consume.
type Observation struct {
	Terminal  string
	SlotStart time.Time
	LocalHour int
	Available []SatObs
	// ChosenIdx indexes Available; -1 when identification failed or no
	// satellite was serving.
	ChosenIdx int
}

// Chosen returns the chosen satellite's observation, ok=false when
// identification failed.
func (o *Observation) Chosen() (SatObs, bool) {
	if o.ChosenIdx < 0 || o.ChosenIdx >= len(o.Available) {
		return SatObs{}, false
	}
	return o.Available[o.ChosenIdx], true
}

// Clone returns a copy of o that owns its Available array. A consumer
// that keeps an observation past its call keeps a clone: the campaign
// engine reuses the array the next slot.
func (o Observation) Clone() Observation {
	o.Available = slices.Clone(o.Available)
	return o
}

// appendAvail appends the observation rows of a sorted field of view
// to out: every satellite above the mask with its look angles, age,
// and sunlit state.
func appendAvail(out []SatObs, fov []constellation.Visible, slotStart time.Time) []SatObs {
	for _, v := range fov {
		out = append(out, SatObs{
			ID:           v.Sat.ID,
			ElevationDeg: v.Look.ElevationDeg,
			AzimuthDeg:   v.Look.AzimuthDeg,
			RangeKm:      v.Look.RangeKm,
			AgeYears:     v.Sat.AgeYears(slotStart),
			LaunchDate:   v.Sat.Launch,
			Sunlit:       v.Sunlit,
		})
	}
	return out
}

// LocalHour converts a UTC slot time to the terminal's local hour
// using its fixed UTC offset.
func LocalHour(vp geo.VantagePoint, t time.Time) int {
	h := (t.UTC().Hour() + vp.UTCOffsetHours) % 24
	if h < 0 {
		h += 24
	}
	return h
}

// indexOf finds a satellite ID in an available set, -1 if absent.
func indexOf(avail []SatObs, id int) int {
	for i, a := range avail {
		if a.ID == id {
			return i
		}
	}
	return -1
}

// quadrant names the paper's Figure 5 azimuth quadrants.
func quadrant(azDeg float64) string {
	az := units.WrapDeg360(azDeg)
	switch {
	case az < 90:
		return "NE"
	case az < 180:
		return "SE"
	case az < 270:
		return "SW"
	default:
		return "NW"
	}
}

// isNorth reports whether an azimuth points into the northern half of
// the sky (NE or NW quadrant).
func isNorth(azDeg float64) bool {
	q := quadrant(azDeg)
	return q == "NE" || q == "NW"
}

// validateVantagePoint confirms a terminal definition is usable.
func validateVantagePoint(vp geo.VantagePoint) error {
	if vp.Name == "" {
		return fmt.Errorf("core: vantage point has no name")
	}
	if vp.Location == (astro.Geodetic{}) {
		return fmt.Errorf("core: vantage point %q has zero location", vp.Name)
	}
	return nil
}
