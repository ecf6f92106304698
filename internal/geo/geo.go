// Package geo defines the study's vantage points (the four terminals
// the paper deployed), per-site obstruction masks (the Ithaca terminal
// was blocked to the northwest by trees), and the ITU geostationary
// exclusion-zone constraint that shapes where the scheduler may point
// a terminal.
package geo

import (
	"fmt"
	"math"

	"repro/internal/astro"
	"repro/internal/units"
)

// VantagePoint is one terminal deployment site.
type VantagePoint struct {
	Name     string
	Location astro.Geodetic
	// UTCOffsetHours converts UTC to the site's local standard time for
	// the model's local-hour feature. (Fixed offsets; DST ignored.)
	UTCOffsetHours int
	// Mask is the site obstruction mask, nil when the sky is clear.
	Mask *Mask
	// PoP names the point of presence the terminal homes to.
	PoP string
}

// StudyVantagePoints returns the four sites from the paper: Midwest US
// (Iowa), Northeast US (Ithaca, NY), Western Europe (Madrid), and
// Northwest US (Washington state). The Ithaca site carries the
// northwest tree mask the paper §5.1 describes.
func StudyVantagePoints() []VantagePoint {
	return []VantagePoint{
		{
			Name:           "Iowa",
			Location:       astro.Geodetic{LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.20},
			UTCOffsetHours: -6,
			PoP:            "chicago",
		},
		{
			Name:           "New York",
			Location:       astro.Geodetic{LatDeg: 42.444, LonDeg: -76.501, AltKm: 0.25},
			UTCOffsetHours: -5,
			PoP:            "newyork",
			// Severe tree obstruction to the north-west (az 270-360),
			// blocking everything below ~70 deg elevation there — the
			// paper reports the site received only 9.7% of its picks
			// from this quadrant vs 55.4% at unobstructed sites.
			Mask: NewMask([]MaskSector{{AzFromDeg: 270, AzToDeg: 360, MinElevDeg: 70}}),
		},
		{
			Name:           "Madrid",
			Location:       astro.Geodetic{LatDeg: 40.417, LonDeg: -3.704, AltKm: 0.65},
			UTCOffsetHours: 1,
			PoP:            "madrid",
		},
		{
			Name:           "Washington",
			Location:       astro.Geodetic{LatDeg: 47.606, LonDeg: -122.332, AltKm: 0.05},
			UTCOffsetHours: -8,
			PoP:            "seattle",
		},
	}
}

// SouthernVantagePoints returns sites for the paper's §8 future-work
// generalization: in the southern hemisphere the GSO belt sits in the
// *northern* sky, so the exclusion zone should mirror the scheduler's
// directional preference. An equatorial site is included as the
// degenerate case (belt overhead).
func SouthernVantagePoints() []VantagePoint {
	return []VantagePoint{
		{
			Name:           "Sydney",
			Location:       astro.Geodetic{LatDeg: -33.87, LonDeg: 151.21, AltKm: 0.05},
			UTCOffsetHours: 10,
			PoP:            "sydney",
		},
		{
			Name:           "Punta Arenas",
			Location:       astro.Geodetic{LatDeg: -53.16, LonDeg: -70.91, AltKm: 0.03},
			UTCOffsetHours: -3,
			PoP:            "santiago",
		},
		{
			Name:           "Quito",
			Location:       astro.Geodetic{LatDeg: -0.18, LonDeg: -78.47, AltKm: 2.85},
			UTCOffsetHours: -5,
			PoP:            "quito",
		},
	}
}

// VantagePointByName finds a study vantage point.
func VantagePointByName(name string) (VantagePoint, error) {
	for _, vp := range StudyVantagePoints() {
		if vp.Name == name {
			return vp, nil
		}
	}
	return VantagePoint{}, fmt.Errorf("geo: unknown vantage point %q", name)
}

// MaskSector is an azimuth wedge below whose MinElevDeg the sky is
// obstructed. The wedge spans clockwise from AzFromDeg to AzToDeg
// (both degrees from north); wrap-around sectors (e.g. 350→20) are
// supported.
type MaskSector struct {
	AzFromDeg  float64
	AzToDeg    float64
	MinElevDeg float64
}

// Mask is a set of obstruction sectors for one site.
type Mask struct {
	sectors []MaskSector
}

// NewMask builds a mask from sectors.
func NewMask(sectors []MaskSector) *Mask {
	return &Mask{sectors: append([]MaskSector(nil), sectors...)}
}

// Blocked reports whether a satellite at the given azimuth/elevation
// is hidden by the mask. A nil mask blocks nothing.
func (m *Mask) Blocked(azDeg, elevDeg float64) bool {
	if m == nil {
		return false
	}
	az := units.WrapDeg360(azDeg)
	for _, s := range m.sectors {
		if inSector(az, s.AzFromDeg, s.AzToDeg) && elevDeg < s.MinElevDeg {
			return true
		}
	}
	return false
}

func inSector(az, from, to float64) bool {
	from = units.WrapDeg360(from)
	to = units.WrapDeg360(to)
	if from <= to {
		return az >= from && az <= to
	}
	return az >= from || az <= to // wrap-around
}

// GSO exclusion. 47 CFR §25.289 protects geostationary networks: an
// NGSO space station may not transmit to a terminal when it lies close
// to the line between the terminal and the GSO arc. We implement the
// standard discrimination-angle test: for a satellite seen at
// elevation el and azimuth az from a terminal at latitude lat, compute
// the minimum angular separation between the satellite direction and
// any point of the geostationary belt as seen from the terminal, and
// exclude the satellite when that separation is below the protection
// threshold.
const (
	// GSOAltKm is the geostationary orbit altitude.
	GSOAltKm = 35786.0
	// DefaultGSOProtectionDeg is the discrimination half-angle within
	// which NGSO transmissions are excluded. SpaceX filings discuss
	// avoidance angles around this magnitude.
	DefaultGSOProtectionDeg = 18.0
)

// GSOExclusion evaluates the geostationary-arc avoidance constraint
// for one observer site. Construct once per site and reuse; the belt
// is sampled at construction.
type GSOExclusion struct {
	protectionDeg float64
	// beltDirs are unit vectors (ENU frame) toward sampled GSO belt
	// positions visible from the site, and beltNorms their computed
	// lengths (1 up to rounding).
	beltDirs  []units.Vec3
	beltNorms []float64
}

// NewGSOExclusion samples the GSO belt as seen from obs. protectionDeg
// <= 0 selects DefaultGSOProtectionDeg.
func NewGSOExclusion(obs astro.Geodetic, protectionDeg float64) *GSOExclusion {
	if protectionDeg <= 0 {
		protectionDeg = DefaultGSOProtectionDeg
	}
	g := &GSOExclusion{protectionDeg: protectionDeg}
	// Sample the belt every degree of longitude; keep points above the
	// horizon.
	var dirs []units.Vec3
	for lon := -180.0; lon < 180; lon++ {
		beltPoint := astro.Geodetic{LatDeg: 0, LonDeg: lon, AltKm: GSOAltKm}
		la := astro.Observe(obs, beltPoint.ToECEF())
		if la.ElevationDeg < 0 {
			continue
		}
		dirs = append(dirs, dirFromLook(la))
	}
	// The exclusion lives as long as its scheduler, so it keeps
	// exact-size copies rather than append's spare capacity.
	g.beltDirs = make([]units.Vec3, len(dirs))
	g.beltNorms = make([]float64, len(dirs))
	for i, b := range dirs {
		g.beltDirs[i], g.beltNorms[i] = b, b.Norm()
	}
	return g
}

// dirFromLook converts look angles to a unit vector in the local
// east-north-up frame.
func dirFromLook(la astro.LookAngles) units.Vec3 {
	el := units.Deg2Rad(la.ElevationDeg)
	az := units.Deg2Rad(la.AzimuthDeg)
	return units.Vec3{
		X: math.Cos(el) * math.Sin(az), // east
		Y: math.Cos(el) * math.Cos(az), // north
		Z: math.Sin(el),                // up
	}
}

// Excluded reports whether a satellite seen at the given look angles
// falls inside the protected zone around the GSO arc: its separation
// from the belt is below the protection angle. A site that sees no
// belt point (separation +Inf) excludes nothing.
func (g *GSOExclusion) Excluded(azDeg, elevDeg float64) bool {
	return g.MinSeparationDeg(azDeg, elevDeg) < g.protectionDeg
}

// ProtectionDeg returns the discrimination half-angle in degrees.
// Callers that also need the separation itself test
// MinSeparationDeg(az, el) < ProtectionDeg(), which is Excluded
// without a second walk of the belt.
func (g *GSOExclusion) ProtectionDeg() float64 { return g.protectionDeg }

// MinSeparationDeg returns the angular distance from the given
// direction to the nearest visible GSO belt point, in degrees. Returns
// +Inf when no belt point is above the horizon (polar sites).
//
// Acos is monotone, so the nearest belt point is the one of largest
// cosine: one pass over the belt takes the largest clamped cosine,
// with the belt's norms computed at construction, and a single Acos
// ends it. The result is bit for bit the minimum of the per-point
// angles.
func (g *GSOExclusion) MinSeparationDeg(azDeg, elevDeg float64) float64 {
	if len(g.beltDirs) == 0 {
		return math.Inf(1)
	}
	d := dirFromLook(astro.LookAngles{ElevationDeg: elevDeg, AzimuthDeg: azDeg})
	nd := d.Norm()
	best := -1.0 // Acos(-1) = π, the largest separation
	for i, b := range g.beltDirs {
		if c := units.Clamp(d.Dot(b)/(nd*g.beltNorms[i]), -1, 1); c > best {
			best = c
		}
	}
	return units.Rad2Deg(math.Acos(best))
}
