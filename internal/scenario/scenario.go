// Package scenario is the declarative front door to the reproduction:
// a versioned JSON spec describing constellation design, terminal
// placement, scheduler configuration, campaign shape, and outputs.
// Spec.Build is the one constructor of an environment: it builds the
// constellation, scheduler, identifier and snapshot cache an
// experiments.Env holds. The analyses that compare environments live
// here too — the §8 siblings (hemispheres, GSO ablation, load
// sensitivity) and the drift experiment, each building every
// environment from an edited copy of one spec — next to the
// planted-preference recovery check. The paper's
// methodology — identification (§4) plus preference inference (§5–§6)
// — is constellation-agnostic; the spec makes the subject of study
// (Starlink Walker-delta, OneWeb/Iridium/Kepler Walker-star, or
// anything expressible as shells) data instead of code.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scheduler"
	"repro/scenarios"
)

// SpecVersion is the schema version this package reads.
const SpecVersion = 1

// Spec is one complete scenario. The zero value is invalid; specs are
// produced by Parse/Load (strict: unknown fields are errors) or built
// in Go and checked with Validate.
type Spec struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives constellation jitter, scheduler load/noise, and (by
	// default) random terminal placement.
	Seed int64 `json:"seed"`

	Constellation ConstellationSpec `json:"constellation"`
	Terminals     TerminalsSpec     `json:"terminals"`
	Scheduler     SchedulerSpec     `json:"scheduler"`
	Campaign      CampaignSpec      `json:"campaign"`
	Outputs       OutputsSpec       `json:"outputs,omitempty"`
}

// ConstellationSpec selects the constellation design: a named preset
// or explicit shells (exactly one).
type ConstellationSpec struct {
	// Preset names a built-in design: starlink-small, starlink-medium,
	// starlink-full (the -scale densities), oneweb, iridium-next,
	// kepler (Walker-star presets).
	Preset string `json:"preset,omitempty"`
	// Shells is an explicit design; overridden by nothing, mutually
	// exclusive with Preset.
	Shells []ShellSpec `json:"shells,omitempty"`
	// NamePrefix names satellites "<prefix>-<n>" (default STARLINK).
	NamePrefix string `json:"name_prefix,omitempty"`
	// Epoch is the TLE epoch, RFC3339 (default the 2023-03-01 study
	// epoch).
	Epoch string `json:"epoch,omitempty"`
	// JitterDeg is the 1-sigma orbital-element perturbation; 0 keeps
	// the 0.15° default.
	JitterDeg float64 `json:"jitter_deg,omitempty"`
	// UseKeplerJ2 swaps in the ablation propagator.
	UseKeplerJ2 bool `json:"use_kepler_j2,omitempty"`
}

// ShellSpec is one Walker shell.
type ShellSpec struct {
	Name           string  `json:"name"`
	Geometry       string  `json:"geometry,omitempty"` // walker-delta (default) | walker-star
	AltitudeKm     float64 `json:"altitude_km"`
	InclinationDeg float64 `json:"inclination_deg"`
	Planes         int     `json:"planes"`
	SatsPerPlane   int     `json:"sats_per_plane"`
	PhasingF       int     `json:"phasing_f"`
}

// shell lowers the spec form to the constellation type.
func (sh ShellSpec) shell() constellation.Shell {
	return constellation.Shell{
		Name:           sh.Name,
		AltitudeKm:     sh.AltitudeKm,
		InclinationDeg: sh.InclinationDeg,
		Planes:         sh.Planes,
		SatsPerPlane:   sh.SatsPerPlane,
		PhasingF:       sh.PhasingF,
		Geometry:       constellation.Geometry(sh.Geometry),
	}
}

// TerminalsSpec places the campaign's terminals: a named preset plus
// any mix of explicit sites, grids, and seeded random scatters. At
// least one terminal must result.
type TerminalsSpec struct {
	// Preset: "study" (the paper's four sites) or "southern" (§8).
	Preset string       `json:"preset,omitempty"`
	Sites  []SiteSpec   `json:"sites,omitempty"`
	Grids  []GridSpec   `json:"grids,omitempty"`
	Random []RandomSpec `json:"random,omitempty"`
}

// SiteSpec is one explicit terminal site.
type SiteSpec struct {
	Name   string  `json:"name"`
	LatDeg float64 `json:"lat_deg"`
	LonDeg float64 `json:"lon_deg"`
	AltKm  float64 `json:"alt_km,omitempty"`
	// UTCOffsetHours is the site's standard-time offset; omitted, it
	// is derived from the longitude (15°/hour).
	UTCOffsetHours *int `json:"utc_offset_hours,omitempty"`
	// PoP names the point of presence the terminal homes to (must be
	// a known study PoP when set).
	PoP string `json:"pop,omitempty"`
	// Mask lists obstruction sectors (azimuth range → minimum clear
	// elevation), like the study's New York tree line.
	Mask []MaskSectorSpec `json:"mask,omitempty"`
}

// MaskSectorSpec is one obstruction sector of a site mask.
type MaskSectorSpec struct {
	AzFromDeg  float64 `json:"az_from_deg"`
	AzToDeg    float64 `json:"az_to_deg"`
	MinElevDeg float64 `json:"min_elev_deg"`
}

// RegionSpec is a lat/lon bounding box (antimeridian-crossing boxes
// use lon_min > lon_max).
type RegionSpec struct {
	LatMinDeg float64 `json:"lat_min_deg"`
	LatMaxDeg float64 `json:"lat_max_deg"`
	LonMinDeg float64 `json:"lon_min_deg"`
	LonMaxDeg float64 `json:"lon_max_deg"`
}

func (r RegionSpec) region() geo.Region {
	return geo.Region{LatMinDeg: r.LatMinDeg, LatMaxDeg: r.LatMaxDeg, LonMinDeg: r.LonMinDeg, LonMaxDeg: r.LonMaxDeg}
}

// GridSpec places rows×cols terminals evenly over a region.
type GridSpec struct {
	Prefix string     `json:"prefix"`
	Region RegionSpec `json:"region"`
	Rows   int        `json:"rows"`
	Cols   int        `json:"cols"`
	AltKm  float64    `json:"alt_km,omitempty"`
}

// RandomSpec scatters count terminals area-uniformly within a region.
type RandomSpec struct {
	Prefix string     `json:"prefix"`
	Region RegionSpec `json:"region"`
	Count  int        `json:"count"`
	AltKm  float64    `json:"alt_km,omitempty"`
	// Seed, when set, decouples this scatter from the scenario seed.
	Seed *int64 `json:"seed,omitempty"`
}

// SchedulerSpec configures the ground-truth scheduler.
type SchedulerSpec struct {
	// Weights plants explicit preference weights; omitted uses the
	// study defaults. An all-zero weights object is rejected (the
	// scheduler would silently substitute the defaults) — omit the
	// field instead.
	Weights *WeightsSpec `json:"weights,omitempty"`
	// MinElevationDeg is the terminal hardware mask, applied to both
	// scheduling and the identifier's available sets (0 keeps 25°).
	MinElevationDeg float64 `json:"min_elevation_deg,omitempty"`
	// GSOProtectionDeg overrides the GSO-belt exclusion half-angle.
	GSOProtectionDeg float64 `json:"gso_protection_deg,omitempty"`
	// DisableGSO removes the exclusion zone (ablation).
	DisableGSO bool `json:"disable_gso,omitempty"`
	// GroundStations overrides the gateway sites for the bent-pipe
	// constraint; omitted uses the study PoPs' co-located gateways.
	GroundStations []LocationSpec `json:"ground_stations,omitempty"`
	// DisableGroundStations removes the bent-pipe constraint.
	DisableGroundStations bool `json:"disable_ground_stations,omitempty"`
	// GSMinElevationDeg is the gateway visibility mask (0 keeps 25°).
	GSMinElevationDeg float64 `json:"gs_min_elevation_deg,omitempty"`
	// DisableBattery removes the satellite energy model (ablation).
	DisableBattery bool `json:"disable_battery,omitempty"`
}

// WeightsSpec mirrors scheduler.Weights in spec form: the same fields
// in the same order, so each converts to the other.
type WeightsSpec struct {
	Elevation    float64 `json:"elevation"`
	GSOClearance float64 `json:"gso_clearance"`
	Recency      float64 `json:"recency"`
	Sunlit       float64 `json:"sunlit"`
	Load         float64 `json:"load"`
	Charge       float64 `json:"charge"`
	NoiseStd     float64 `json:"noise_std"`
}

// weights lowers the spec form to the scheduler type.
func (w *WeightsSpec) weights() scheduler.Weights {
	if w == nil {
		return scheduler.Weights{} // zero value selects the defaults
	}
	return scheduler.Weights(*w)
}

// PlantedWeights returns the spec's explicit scheduler weights, false
// when the spec leaves the study defaults in place. The recovery
// experiment compares inference output against exactly these.
func (s *Spec) PlantedWeights() (scheduler.Weights, bool) {
	if s.Scheduler.Weights == nil {
		return scheduler.Weights{}, false
	}
	return s.Scheduler.Weights.weights(), true
}

// LocationSpec is a bare geodetic position.
type LocationSpec struct {
	LatDeg float64 `json:"lat_deg"`
	LonDeg float64 `json:"lon_deg"`
	AltKm  float64 `json:"alt_km,omitempty"`
}

// CampaignSpec shapes the measurement campaign.
type CampaignSpec struct {
	// Slots is the number of 15-second allocation slots.
	Slots int `json:"slots"`
	// Oracle skips DTW identification and records scheduler ground
	// truth (the §5/§6 input mode; §4 validates identification
	// separately via IdentSlots).
	Oracle bool `json:"oracle"`
	// IdentSlots bounds the §4 identification-validation campaign; 0
	// uses 125, the study's 500 identifications over four terminals.
	IdentSlots int `json:"ident_slots,omitempty"`
	// ResetEvery clears dish state every N slots (0 keeps 40).
	ResetEvery int `json:"reset_every,omitempty"`
	// Workers bounds the campaign worker pool (0 = all CPUs).
	Workers int `json:"workers,omitempty"`
	// SnapshotWorkers is the propagation-sweep fan-out (0 = all CPUs).
	SnapshotWorkers int `json:"snapshot_workers,omitempty"`
}

// OutputsSpec selects what the scenario run produces.
type OutputsSpec struct {
	// Observations, when set, saves the chosen-only observation
	// stream as JSONL to this path.
	Observations string `json:"observations,omitempty"`
	// Analyses selects what `repro` runs, by the names in Analyses
	// (fig2, stats, fig3, ident, aoe, azimuth, launch, sunlit, model,
	// recovery, ext, drift); they run in that order whatever
	// the order listed. Empty runs ident, aoe, azimuth, launch, sunlit
	// and model, plus recovery when weights are planted.
	Analyses []string `json:"analyses,omitempty"`
}

// Analyses lists every valid Outputs.Analyses entry in run order.
var Analyses = []string{"fig2", "stats", "fig3", "ident", "aoe", "azimuth", "launch", "sunlit", "model", "recovery", "ext", "drift"}

// defaultAnalyses is what a spec that lists none runs.
var defaultAnalyses = []string{"ident", "aoe", "azimuth", "launch", "sunlit", "model", "recovery"}

// AnalysisEnabled reports whether the named analysis should run:
// listed, or in the default set when none are listed (then "recovery"
// requires planted weights).
func (s *Spec) AnalysisEnabled(name string) bool {
	list := s.Outputs.Analyses
	if len(list) == 0 {
		if name == "recovery" && s.Scheduler.Weights == nil {
			return false
		}
		list = defaultAnalyses
	}
	return slices.Contains(list, name)
}

// parse reads one spec from r. Decoding is strict — unknown or
// misspelled fields are errors, not silent no-ops — and the spec is
// validated before being returned.
func parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	// Trailing garbage after the spec object is a malformed file.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadPreset reads an embedded preset by name (without the .json
// suffix).
func LoadPreset(name string) (*Spec, error) {
	b, err := fs.ReadFile(scenarios.FS, name+".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
	}
	s, err := parse(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("preset %s: %w", name, err)
	}
	return s, nil
}

// Starlink is the starlink-baseline preset at constellation density
// scale (small|medium|full, lowered to the starlink-<scale> preset)
// with the given seed: what the `-scale s -seed n` flags select.
func Starlink(scale string, seed int64) (*Spec, error) {
	s, err := LoadPreset("starlink-baseline")
	if err != nil {
		return nil, err
	}
	s.Seed = seed
	s.Constellation.Preset = "starlink-" + scale
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Resolve loads arg as a file path, falling back to an embedded
// preset name (with or without the .json suffix) when no such file
// exists. This is what `repro -scenario` accepts.
func Resolve(arg string) (*Spec, error) {
	if _, err := os.Stat(arg); err != nil {
		return LoadPreset(strings.TrimSuffix(arg, ".json"))
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := parse(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", arg, err)
	}
	return s, nil
}

// PresetNames lists the embedded presets, sorted.
func PresetNames() []string {
	entries, err := fs.ReadDir(scenarios.FS, ".")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// constellationPreset maps preset names to shell designs. The
// starlink-* densities keep the analyses' shapes: small (~700
// satellites, a few in view) for smoke tests, medium (~1800, ~15 in
// view) for paper-shaped results in seconds, full (~4400, ~40 in view)
// for the paper's 2023 density.
func constellationPreset(name string) ([]constellation.Shell, bool) {
	switch name {
	case "starlink-small":
		return []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 30, SatsPerPlane: 18, PhasingF: 13},
			{Name: "s3", AltitudeKm: 570, InclinationDeg: 70, Planes: 12, SatsPerPlane: 12, PhasingF: 5},
		}, true
	case "starlink-medium":
		return []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 48, SatsPerPlane: 20, PhasingF: 17},
			{Name: "s2", AltitudeKm: 540, InclinationDeg: 53.2, Planes: 40, SatsPerPlane: 18, PhasingF: 13},
			{Name: "s3", AltitudeKm: 570, InclinationDeg: 70, Planes: 14, SatsPerPlane: 14, PhasingF: 5},
		}, true
	case "starlink-full":
		return constellation.StarlinkShells(), true
	case "oneweb":
		return constellation.OneWebShells(), true
	case "iridium-next":
		return constellation.IridiumNextShells(), true
	case "kepler":
		return constellation.KeplerShells(), true
	}
	return nil, false
}

// constellationPresetNames lists the valid ConstellationSpec.Preset
// values.
func constellationPresetNames() []string {
	return []string{"starlink-small", "starlink-medium", "starlink-full", "oneweb", "iridium-next", "kepler"}
}

// Shells resolves the spec's constellation design.
func (s *Spec) Shells() ([]constellation.Shell, error) {
	c := &s.Constellation
	switch {
	case c.Preset != "" && len(c.Shells) > 0:
		return nil, fmt.Errorf("scenario: constellation sets both preset and shells")
	case c.Preset != "":
		sh, ok := constellationPreset(c.Preset)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown constellation preset %q (have %s)", c.Preset, strings.Join(constellationPresetNames(), ", "))
		}
		return sh, nil
	case len(c.Shells) > 0:
		out := make([]constellation.Shell, len(c.Shells))
		for i, sp := range c.Shells {
			out[i] = sp.shell()
		}
		return out, nil
	}
	return nil, fmt.Errorf("scenario: constellation needs a preset or explicit shells")
}

// epoch parses the optional constellation epoch.
func (s *Spec) epoch() (time.Time, error) {
	if s.Constellation.Epoch == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, s.Constellation.Epoch)
	if err != nil {
		return time.Time{}, fmt.Errorf("scenario: constellation epoch: %w", err)
	}
	return t.UTC(), nil
}

// VantagePoints lowers the terminal placement section, in
// deterministic order: preset sites, explicit sites, grids, random
// scatters.
func (s *Spec) VantagePoints() ([]geo.VantagePoint, error) {
	t := &s.Terminals
	var vps []geo.VantagePoint
	switch t.Preset {
	case "":
	case "study":
		vps = append(vps, geo.StudyVantagePoints()...)
	case "southern":
		vps = append(vps, geo.SouthernVantagePoints()...)
	default:
		return nil, fmt.Errorf("scenario: unknown terminals preset %q (want study or southern)", t.Preset)
	}
	for _, site := range t.Sites {
		off := geo.UTCOffsetForLon(site.LonDeg)
		if site.UTCOffsetHours != nil {
			off = *site.UTCOffsetHours
		}
		vp := geo.VantagePoint{
			Name:           site.Name,
			Location:       astro.Geodetic{LatDeg: site.LatDeg, LonDeg: site.LonDeg, AltKm: site.AltKm},
			UTCOffsetHours: off,
			PoP:            site.PoP,
		}
		if len(site.Mask) > 0 {
			sectors := make([]geo.MaskSector, len(site.Mask))
			for i, m := range site.Mask {
				sectors[i] = geo.MaskSector{AzFromDeg: m.AzFromDeg, AzToDeg: m.AzToDeg, MinElevDeg: m.MinElevDeg}
			}
			vp.Mask = geo.NewMask(sectors)
		}
		vps = append(vps, vp)
	}
	for _, g := range t.Grids {
		pts, err := geo.Grid(g.Prefix, g.Region.region(), g.Rows, g.Cols, g.AltKm)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		vps = append(vps, pts...)
	}
	for i, r := range t.Random {
		seed := s.Seed + int64(i+1) // decorrelate multiple scatters
		if r.Seed != nil {
			seed = *r.Seed
		}
		pts, err := geo.RandomInRegion(r.Prefix, r.Region.region(), r.Count, r.AltKm, seed)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		vps = append(vps, pts...)
	}
	if len(vps) == 0 {
		return nil, fmt.Errorf("scenario: no terminals placed (need a preset, sites, grids, or random)")
	}
	return vps, nil
}

// Validate checks the whole spec and reports every problem it can
// find, joined into one error — a spec author fixes one round of
// messages, not one message per round.
func (s *Spec) Validate() error {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	if s.Version != SpecVersion {
		bad("version %d unsupported (want %d)", s.Version, SpecVersion)
	}
	if s.Name == "" {
		bad("name is required")
	} else if strings.ContainsAny(s.Name, " \t\n") {
		bad("name %q contains whitespace", s.Name)
	}

	// Constellation.
	if _, err := s.Shells(); err != nil {
		errs = append(errs, strings.TrimPrefix(err.Error(), "scenario: "))
	}
	for _, sp := range s.Constellation.Shells {
		if err := sp.shell().Validate(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if _, err := s.epoch(); err != nil {
		errs = append(errs, strings.TrimPrefix(err.Error(), "scenario: "))
	}
	if s.Constellation.JitterDeg < 0 {
		bad("constellation jitter_deg %.3f negative", s.Constellation.JitterDeg)
	}

	// Terminals. Structural errors first, then name collisions over
	// whatever placement succeeds.
	switch s.Terminals.Preset {
	case "", "study", "southern":
	default:
		bad("unknown terminals preset %q (want study or southern)", s.Terminals.Preset)
	}
	for _, site := range s.Terminals.Sites {
		if site.Name == "" {
			bad("terminal site with empty name")
		}
		if site.LatDeg < -90 || site.LatDeg > 90 || site.LonDeg < -180 || site.LonDeg > 180 {
			bad("site %q at (%.2f, %.2f) outside lat/lon range", site.Name, site.LatDeg, site.LonDeg)
		}
		if site.PoP != "" {
			if _, ok := geo.PoPByName(site.PoP); !ok {
				bad("site %q references unknown pop %q", site.Name, site.PoP)
			}
		}
	}
	for _, g := range s.Terminals.Grids {
		if g.Prefix == "" {
			bad("grid with empty prefix")
		}
		if g.Rows <= 0 || g.Cols <= 0 {
			bad("grid %q has non-positive shape %dx%d", g.Prefix, g.Rows, g.Cols)
		}
		if err := g.Region.region().Validate(); err != nil {
			bad("grid %q: %v", g.Prefix, err)
		}
	}
	for _, r := range s.Terminals.Random {
		if r.Prefix == "" {
			bad("random scatter with empty prefix")
		}
		if r.Count <= 0 {
			bad("random %q has non-positive count %d", r.Prefix, r.Count)
		}
		if err := r.Region.region().Validate(); err != nil {
			bad("random %q: %v", r.Prefix, err)
		}
	}
	if vps, err := s.VantagePoints(); err == nil {
		seen := make(map[string]bool, len(vps))
		for _, vp := range vps {
			if seen[vp.Name] {
				bad("duplicate terminal name %q", vp.Name)
			}
			seen[vp.Name] = true
		}
	} else if len(s.Terminals.Sites)+len(s.Terminals.Grids)+len(s.Terminals.Random) == 0 && s.Terminals.Preset == "" {
		bad("no terminals placed (need a preset, sites, grids, or random)")
	}

	// Scheduler.
	sc := &s.Scheduler
	if sc.Weights != nil && *sc.Weights == (WeightsSpec{}) {
		bad("scheduler weights are all zero (the scheduler would substitute defaults; omit the field instead)")
	}
	if sc.MinElevationDeg < 0 || sc.MinElevationDeg >= 90 {
		bad("scheduler min_elevation_deg %.1f outside [0, 90)", sc.MinElevationDeg)
	}
	if sc.GSOProtectionDeg < 0 {
		bad("scheduler gso_protection_deg %.1f negative (use disable_gso)", sc.GSOProtectionDeg)
	}
	if sc.DisableGSO && sc.GSOProtectionDeg != 0 {
		bad("scheduler sets both disable_gso and gso_protection_deg")
	}
	if sc.DisableGroundStations && len(sc.GroundStations) > 0 {
		bad("scheduler sets both disable_ground_stations and ground_stations")
	}
	if sc.GSMinElevationDeg < 0 || sc.GSMinElevationDeg >= 90 {
		bad("scheduler gs_min_elevation_deg %.1f outside [0, 90)", sc.GSMinElevationDeg)
	}

	// Campaign.
	if s.Campaign.Slots <= 0 {
		bad("campaign slots %d must be positive", s.Campaign.Slots)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ident_slots", s.Campaign.IdentSlots},
		{"reset_every", s.Campaign.ResetEvery},
		{"workers", s.Campaign.Workers},
		{"snapshot_workers", s.Campaign.SnapshotWorkers},
	} {
		if f.v < 0 {
			bad("campaign %s %d negative", f.name, f.v)
		}
	}

	// Outputs.
	seenA := make(map[string]bool)
	for _, a := range s.Outputs.Analyses {
		if !slices.Contains(Analyses, a) {
			bad("unknown analysis %q (want %s)", a, strings.Join(Analyses, ", "))
		}
		if seenA[a] {
			bad("duplicate analysis %q", a)
		}
		seenA[a] = true
	}
	if s.AnalysisEnabled("recovery") && s.Scheduler.Weights == nil {
		bad("analysis \"recovery\" needs planted scheduler weights")
	}

	if len(errs) == 0 {
		return nil
	}
	name := s.Name
	if name == "" {
		name = "(unnamed)"
	}
	return fmt.Errorf("scenario %s: %d problem(s): %s", name, len(errs), strings.Join(errs, "; "))
}
