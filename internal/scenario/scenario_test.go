package scenario_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/traceio"
)

// TestValidateAllPresets backs the CI guarantee: every checked-in
// preset parses strictly, validates, and is named after its file.
func TestValidateAllPresets(t *testing.T) {
	names := scenario.PresetNames()
	for _, n := range names {
		s, err := scenario.LoadPreset(n)
		if err != nil {
			t.Error(err)
			continue
		}
		if s.Name != n {
			t.Errorf("preset file %s.json names itself %q", n, s.Name)
		}
	}
	want := []string{"iridium-next", "kepler", "oneweb-star", "smoke", "starlink-baseline"}
	if len(names) != len(want) {
		t.Fatalf("presets %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("presets %v, want %v", names, want)
		}
	}
}

func TestStrictDecodingRejectsUnknownFields(t *testing.T) {
	_, err := scenario.Parse(strings.NewReader(`{
		"version": 1, "name": "x", "seed": 1,
		"constellation": {"preset": "kepler", "planess": 3},
		"terminals": {"preset": "study"},
		"scheduler": {},
		"campaign": {"slots": 10, "oracle": true}
	}`))
	if err == nil || !strings.Contains(err.Error(), "planess") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	_, err := scenario.Parse(strings.NewReader(`{
		"version": 1, "name": "x", "seed": 1,
		"constellation": {"preset": "kepler"},
		"terminals": {"preset": "study"},
		"scheduler": {},
		"campaign": {"slots": 10, "oracle": true}
	} {"more": true}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing data not rejected: %v", err)
	}
}

// TestValidateReportsEveryError is the multi-error contract: one
// validation round surfaces every problem, not just the first.
func TestValidateReportsEveryError(t *testing.T) {
	s := &scenario.Spec{
		Version: 3,
		Name:    "bad spec",
		Constellation: scenario.ConstellationSpec{
			Shells: []scenario.ShellSpec{
				{Name: "s", Geometry: "walker-spiral", AltitudeKm: 80, InclinationDeg: 200, Planes: 4, SatsPerPlane: 4, PhasingF: 9},
			},
			Epoch: "yesterday",
		},
		Terminals: scenario.TerminalsSpec{
			Sites: []scenario.SiteSpec{
				{Name: "a", LatDeg: 95, LonDeg: 0},
				{Name: "a", LatDeg: 10, LonDeg: 10, PoP: "atlantis"},
			},
		},
		Scheduler: scenario.SchedulerSpec{
			Weights:         &scenario.WeightsSpec{},
			MinElevationDeg: 95,
		},
		Campaign: scenario.CampaignSpec{Slots: 0, Workers: -1},
		Outputs:  scenario.OutputsSpec{Analyses: []string{"vibes"}},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid spec validated")
	}
	msg := err.Error()
	for _, frag := range []string{
		"version 3",
		"contains whitespace",
		"walker-spiral",
		"non-physical altitude",
		"inclination 200.00",
		"phasing F=9",
		"epoch",
		"outside lat/lon range",
		"unknown pop \"atlantis\"",
		"duplicate terminal name \"a\"",
		"all zero",
		"min_elevation_deg 95.0",
		"slots 0",
		"workers -1",
		"unknown analysis \"vibes\"",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("validation error missing %q:\n%s", frag, msg)
		}
	}
}

func TestResolveFileAndPreset(t *testing.T) {
	byName, err := scenario.Resolve("smoke")
	if err != nil {
		t.Fatal(err)
	}
	if byName.Name != "smoke" {
		t.Fatalf("preset resolve got %q", byName.Name)
	}
	// A real file wins over the embedded preset namespace.
	dir := t.TempDir()
	path := filepath.Join(dir, "mine.json")
	b, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	byPath, err := scenario.Resolve(path)
	if err != nil {
		t.Fatal(err)
	}
	if byPath.Name != "smoke" {
		t.Fatalf("file resolve got %q", byPath.Name)
	}
	if _, err := scenario.Resolve("no-such-preset"); err == nil {
		t.Fatal("unknown preset resolved")
	}
}

// streamBytes runs a campaign config and returns its traceio JSONL
// encoding — the byte-identity currency of every golden test.
func streamBytes(t *testing.T, cfg core.CampaignConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := traceio.NewEncoder[core.SlotRecord](&buf)
	if _, err := core.RunCampaignStream(context.Background(), cfg, func(rec core.SlotRecord) error {
		return enc.Encode(&rec)
	}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// starlinkBaselineSHA256 is the sha256 of the 12-slot serial record
// stream of the default environment (medium Starlink density, seed 7)
// as the retired per-scale construction built it. Pinning it keeps
// starlink-baseline identical to that path.
const starlinkBaselineSHA256 = "09eed1bd6678b9101eb41a81446820dadf3954f97c1f508844a43d21dfd38b2c"

// TestStarlinkBaselineBitIdentical proves the scenario path subsumes
// the original Starlink path: the starlink-baseline preset's campaign
// stream hashes to the pinned default-environment stream, and the
// -scale flags' helper lowers to the same environment.
func TestStarlinkBaselineBitIdentical(t *testing.T) {
	spec, err := scenario.LoadPreset("starlink-baseline")
	if err != nil {
		t.Fatal(err)
	}
	const slots = 12 // full preset runs 500; identity holds per-slot
	spec.Campaign.Slots = slots
	spec.Campaign.Workers, spec.Campaign.SnapshotWorkers = 1, 1
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromScenario := streamBytes(t, built.CampaignConfig())

	if got := fmt.Sprintf("%x", sha256.Sum256(fromScenario)); got != starlinkBaselineSHA256 {
		t.Fatalf("starlink-baseline stream (%d bytes) hashes to %s, want the default campaign's %s", len(fromScenario), got, starlinkBaselineSHA256)
	}

	flags, err := scenario.Starlink("medium", 7)
	if err != nil {
		t.Fatal(err)
	}
	flags.Campaign.Slots = slots
	flags.Campaign.Workers, flags.Campaign.SnapshotWorkers = 1, 1
	fromFlags, err := flags.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamBytes(t, fromFlags.CampaignConfig()), fromScenario) {
		t.Fatal("Starlink(medium, 7) stream differs from the starlink-baseline preset's")
	}
}

// TestPresetStreamsBitIdentical pins the 12-slot serial record stream
// of every other embedded preset, plus one spec that sets each
// remaining lowered field (Kepler-J2 propagator, epoch, jitter, GSO
// half-angle, explicit gateways and their mask), so a change in how a
// spec becomes an environment cannot pass unseen.
func TestPresetStreamsBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		preset string
		edit   func(*scenario.Spec)
		sha256 string
	}{
		{"oneweb-star", nil, "57106fd802cacce1dc81bec46cdaa74a041c6e5654c0204a738c9e06d3b65345"},
		{"iridium-next", nil, "b2d535517d85f2a8b8a70fa23c4e23bc0442ceed508d63e08404c92280b8665f"},
		{"kepler", nil, "3803978c2b707adf75f8bc88a1b7d70c644d08df690bae8a488608bf5cda7a68"},
		{"smoke", nil, "0a9e2063fca75d4bd88db1ec9d871e59e6fa4161449c2b75701155d35a893176"},
		{"starlink-baseline", func(s *scenario.Spec) {
			s.Name = "every-field"
			s.Constellation.Preset = "starlink-small"
			s.Constellation.UseKeplerJ2 = true
			s.Constellation.Epoch = "2023-06-01T00:00:00Z"
			s.Constellation.JitterDeg = 0.3
			s.Scheduler.GSOProtectionDeg = 12
			s.Scheduler.GroundStations = []scenario.LocationSpec{{LatDeg: 41.9, LonDeg: -87.6}, {LatDeg: 51.5, LonDeg: -0.1, AltKm: 0.05}}
			s.Scheduler.GSMinElevationDeg = 20
			s.Scheduler.MinElevationDeg = 30
		}, "f876f880448d876daba968f5471a308357cf368741b199903f7b22fa12a1cfb2"},
	} {
		name := tc.preset
		if tc.edit != nil {
			name = "every-field"
		}
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.LoadPreset(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(spec)
			}
			spec.Campaign.Slots = 12
			spec.Campaign.Workers, spec.Campaign.SnapshotWorkers = 1, 1
			built, err := spec.Build(scenario.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			stream := streamBytes(t, built.CampaignConfig())
			if got := fmt.Sprintf("%x", sha256.Sum256(stream)); got != tc.sha256 {
				t.Fatalf("%s stream (%d bytes) hashes to %s, want %s", name, len(stream), got, tc.sha256)
			}
		})
	}
}

// TestWalkerStarPresetBuilds exercises a non-Starlink build end to
// end: OneWeb geometry, renamed satellites, distinct fingerprint.
func TestWalkerStarPresetBuilds(t *testing.T) {
	spec, err := scenario.LoadPreset("oneweb-star")
	if err != nil {
		t.Fatal(err)
	}
	spec.Campaign.Slots = 2
	spec.Campaign.Workers, spec.Campaign.SnapshotWorkers = 1, 1
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cons := built.Env.Cons
	if cons.Len() != 18*36 {
		t.Fatalf("OneWeb constellation has %d sats, want 648", cons.Len())
	}
	if !strings.HasPrefix(cons.Sats[0].Name, "ONEWEB-") {
		t.Fatalf("satellite name %q, want ONEWEB- prefix", cons.Sats[0].Name)
	}
	starlink, err := scenario.LoadPreset("starlink-baseline")
	if err != nil {
		t.Fatal(err)
	}
	env, err := starlink.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cons.Fingerprint() == env.Env.Cons.Fingerprint() {
		t.Fatal("OneWeb fingerprint collides with Starlink medium")
	}
	if got := streamBytes(t, built.CampaignConfig()); len(got) == 0 {
		t.Fatal("empty OneWeb campaign stream")
	}
}

// TestScenarioTerminalPlacement checks the smoke preset lowers all
// three placement kinds in deterministic order.
func TestScenarioTerminalPlacement(t *testing.T) {
	spec, err := scenario.LoadPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	vps, err := spec.VantagePoints()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ithaca", "grid-0", "grid-1", "rnd-0"}
	if len(vps) != len(want) {
		t.Fatalf("placed %d terminals, want %d", len(vps), len(want))
	}
	for i, vp := range vps {
		if vp.Name != want[i] {
			t.Fatalf("terminal %d named %q, want %q", i, vp.Name, want[i])
		}
	}
	if vps[0].Mask == nil {
		t.Fatal("site mask not lowered")
	}
	again, err := spec.VantagePoints()
	if err != nil {
		t.Fatal(err)
	}
	for i := range vps {
		if vps[i].Location != again[i].Location {
			t.Fatalf("placement not deterministic at %d", i)
		}
	}
}

// TestAnalysisSelection pins what a spec runs: the seven-analysis
// default set when none are listed (recovery only with planted
// weights), exactly the listed ones otherwise, and no unknown names.
func TestAnalysisSelection(t *testing.T) {
	enabled := func(s *scenario.Spec) []string {
		var on []string
		for _, a := range scenario.Analyses {
			if s.AnalysisEnabled(a) {
				on = append(on, a)
			}
		}
		return on
	}
	s, err := scenario.LoadPreset("starlink-baseline")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(enabled(s), " "), "ident aoe azimuth launch sunlit model"; got != want {
		t.Errorf("default analyses %q, want %q", got, want)
	}
	s.Scheduler.Weights = &scenario.WeightsSpec{Elevation: 1}
	if got, want := strings.Join(enabled(s), " "), "ident aoe azimuth launch sunlit model recovery"; got != want {
		t.Errorf("default analyses with planted weights %q, want %q", got, want)
	}
	s.Outputs.Analyses = []string{"drift", "fig2"}
	if got, want := strings.Join(enabled(s), " "), "fig2 drift"; got != want {
		t.Errorf("listed analyses run as %q, want %q", got, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// fig9 was never an analysis; stream ran a second oracle campaign
	// and is gone.
	for _, name := range []string{"fig9", "stream"} {
		s.Outputs.Analyses = []string{name}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown analysis %q", name)) {
			t.Fatalf("%s validated: %v", name, err)
		}
	}
}

// TestResetEveryReachesEveryCampaign: the spec's reset cadence shapes
// every campaign its environment runs, not only the one
// Built.CampaignConfig lowers. The §4 identification validation and
// the engine on the spec's own campaign config are the same non-oracle
// campaign over fresh builds, so they must score alike.
func TestResetEveryReachesEveryCampaign(t *testing.T) {
	const slots = 60
	build := func() *scenario.Built {
		t.Helper()
		spec, err := scenario.Starlink("small", 7)
		if err != nil {
			t.Fatal(err)
		}
		spec.Campaign.Slots = slots
		spec.Campaign.Oracle = false
		spec.Campaign.ResetEvery = 2
		built, err := spec.Build(scenario.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return built
	}
	ident, err := build().Env.IdentValidation(slots, false)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.RunCampaignStream(context.Background(), build().CampaignConfig(), func(core.SlotRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	got := [3]int{ident.Attempted, ident.Correct, ident.Failed}
	want := [3]int{engine.Attempted, engine.Correct, engine.Failed}
	if got != want {
		t.Errorf("IdentValidation scored %v (attempted, correct, failed), the spec's campaign %v", got, want)
	}
}
