package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// runMainEnv re-enters main() inside the test binary, so the goldens
// exercise the real flag parsing and output without a separate build.
const runMainEnv = "REPRO_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// wallClock matches the only run-to-run varying figures in the output:
// elapsed-time reports such as "in 0.1s".
var wallClock = regexp.MustCompile(`in [0-9]+\.[0-9]+s`)

// TestGoldenOutput pins the stdout of representative invocations byte
// for byte, with wall-clock timings masked. PNGs land in a temp working
// directory (the default -dir is "."), so their printed paths are
// stable too.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs execute several campaigns")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		// runs execute in order in one working directory; the golden
		// is their stdout concatenated, so a later run can read what
		// an earlier one wrote.
		runs [][]string
	}{
		{"all", [][]string{{"-scale", "small", "-slots", "60", "all"}}},
		{"dist", [][]string{{"-scale", "small", "-slots", "40", "dist"}}},
		{"drift", [][]string{{"-scale", "small", "-slots", "200", "drift"}}},
		{"scenario-smoke", [][]string{{"-scenario", "smoke"}}},
		{"fig4", [][]string{{"-scale", "small", "-slots", "60", "fig4"}}},
		{"fig8", [][]string{{"-scale", "small", "-slots", "60", "fig8"}}},
		{"recovery", [][]string{{"-scenario", "oneweb-star", "-slots", "40", "-workers", "3", "recovery"}}},
		{"obs-roundtrip", [][]string{
			{"-scale", "small", "-slots", "60", "-save-obs", "obs.jsonl", "fig4"},
			{"-scale", "small", "-slots", "60", "-load-obs", "obs.jsonl", "fig4"},
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var got []byte
			for _, args := range tc.runs {
				cmd := exec.Command(exe, args...)
				cmd.Dir = dir
				cmd.Env = append(os.Environ(), runMainEnv+"=1")
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("repro %v: %v", args, err)
				}
				got = append(got, wallClock.ReplaceAll(out, []byte("in N.Ns"))...)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("repro %v: stdout differs from testdata/%s.golden; %s", tc.runs, tc.golden, firstDiff(got, want))
			}
		})
	}
}

// firstDiff describes the first line where got and want disagree.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// repro runs main() in a child process in dir and returns its stdout,
// stderr and exit code.
func repro(t *testing.T, dir string, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestOneDriverOneDescription holds the CLI to one driver: a figure
// name on the -scale path and its analysis name on the -scenario path
// describe the same spec, so they print the same bytes.
func TestOneDriverOneDescription(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two medium-density campaigns")
	}
	a, _, code := repro(t, t.TempDir(), "-scenario", "starlink-baseline", "-slots", "12", "aoe")
	if code != 0 {
		t.Fatalf("-scenario starlink-baseline aoe exited %d", code)
	}
	b, _, code := repro(t, t.TempDir(), "-scale", "medium", "-slots", "12", "fig4")
	if code != 0 {
		t.Fatalf("-scale medium fig4 exited %d", code)
	}
	a, b = wallClock.ReplaceAll(a, []byte("in N.Ns")), wallClock.ReplaceAll(b, []byte("in N.Ns"))
	if !bytes.Equal(a, b) {
		t.Fatalf("-scenario starlink-baseline aoe and -scale medium fig4 differ; %s", firstDiff(a, b))
	}
}

// section returns the body of one analysis's "---- name ----" section
// in a run's stdout: up to the next section, or the end.
func section(t *testing.T, out []byte, name string) []byte {
	t.Helper()
	head := []byte("\n---- " + name + " ----\n")
	i := bytes.Index(out, head)
	if i < 0 {
		t.Fatalf("no %s section in:\n%s", name, out)
	}
	body := out[i+len(head):]
	if j := bytes.Index(body, []byte("\n---- ")); j >= 0 {
		body = body[:j]
	}
	return body
}

// TestOneCampaignFeedsEveryAnalysis: the analyses of one spec read one
// oracle campaign, and each prints what it prints alone. A spec naming
// aoe, sunlit and model runs the campaign once, and its three sections
// equal fig4's, fig7's and fig8's; the model trained from a -load-obs
// replay equals the one trained from the campaign that saved it.
func TestOneCampaignFeedsEveryAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six campaigns")
	}
	dir := t.TempDir()
	spec, err := scenario.LoadPreset("starlink-baseline")
	if err != nil {
		t.Fatal(err)
	}
	spec.Outputs.Analyses = []string{"aoe", "sunlit", "model"}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "three.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) []byte {
		t.Helper()
		out, stderr, code := repro(t, dir, args...)
		if code != 0 {
			t.Fatalf("repro %v: exit %d, stderr:\n%s", args, code, stderr)
		}
		return out
	}
	all := run("-scenario", "three.json", "-slots", "12")
	if n := bytes.Count(all, []byte("-slot oracle campaign\n")); n != 1 {
		t.Fatalf("%d oracle campaign banners, want 1:\n%s", n, all)
	}
	for _, tc := range []struct{ fig, name string }{{"fig4", "aoe"}, {"fig7", "sunlit"}, {"fig8", "model"}} {
		alone := run("-scale", "medium", "-slots", "12", tc.fig)
		if got, want := section(t, all, tc.name), section(t, alone, tc.name); !bytes.Equal(got, want) {
			t.Errorf("%s section differs from %s alone; %s", tc.name, tc.fig, firstDiff(got, want))
		}
	}

	saved := run("-scale", "small", "-slots", "60", "-save-obs", "obs.jsonl", "fig8")
	loaded := run("-scale", "small", "-slots", "60", "-load-obs", "obs.jsonl", "fig8")
	if got, want := section(t, loaded, "model"), section(t, saved, "model"); !bytes.Equal(got, want) {
		t.Errorf("model from -load-obs differs from the campaign's; %s", firstDiff(got, want))
	}
}

// TestRecoveryReportsFitMetrics: recovery trains its forests with the
// run's telemetry, as model does, so -v prints their fit counters.
func TestRecoveryReportsFitMetrics(t *testing.T) {
	out, stderr, code := repro(t, t.TempDir(), "-scenario", "oneweb-star", "-slots", "40", "-v", "recovery")
	if code != 0 {
		t.Fatalf("repro -v recovery: exit %d, stderr:\n%s", code, stderr)
	}
	if !regexp.MustCompile(`(?m)^ml_trees_fitted_total +[1-9][0-9]*$`).Match(out) {
		t.Fatalf("repro -v recovery prints no ml_trees_fitted_total:\n%s", out)
	}
}

// TestAnalysisOnForeignSpecFails: an analysis that names a study
// terminal fails cleanly on a spec without that terminal.
func TestAnalysisOnForeignSpecFails(t *testing.T) {
	_, stderr, code := repro(t, t.TempDir(), "-scenario", "smoke", "fig2")
	if code != 1 || !bytes.Contains(stderr, []byte(`unknown terminal "Madrid"`)) || bytes.Contains(stderr, []byte("panic")) {
		t.Fatalf("repro -scenario smoke fig2: exit %d, stderr:\n%s", code, stderr)
	}
}

// TestShortExtCompletes: a run too short for a handover at Iowa
// reports the motion comparison as not computable and exits 0, after
// every other §8 line.
func TestShortExtCompletes(t *testing.T) {
	out, stderr, code := repro(t, t.TempDir(), "-scale", "small", "-slots", "2", "ext")
	if code != 0 {
		t.Fatalf("repro -slots 2 ext: exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"GSO ablation:", "load hypothesis:", "handover loss:",
		"motion vs reallocation (§3 argument): not computable (1 served slots, 0 handovers at Iowa)"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestLoadObsCorruptTrace: a corrupt -load-obs trace fails the run
// with the decoder's error instead of analysing a partial set.
func TestLoadObsCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := repro(t, dir, "-scale", "small", "-load-obs", "bad.jsonl", "fig4")
	if code != 1 || len(stderr) == 0 || bytes.Contains(stderr, []byte("panic")) || bytes.Contains(out, []byte("---- aoe ----")) {
		t.Fatalf("repro -load-obs corrupt fig4: exit %d, stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
}

// TestStageTable checks that every analysis a spec can name has a
// stage, that the stages reading -load-obs (and so the shared
// observation campaign) are the ones observe has consumers for, and
// that the CLI shorthands name analyses.
func TestStageTable(t *testing.T) {
	var campaign []string
	for _, name := range scenario.Analyses {
		st := stages[name]
		if st.run == nil {
			t.Errorf("analysis %q has no stage", name)
		}
		if slices.Contains(st.flags, "load-obs") {
			campaign = append(campaign, name)
		}
	}
	if got, want := strings.Join(campaign, " "), "aoe azimuth launch sunlit model recovery"; got != want {
		t.Errorf("stages reading the observation campaign: %s, want %s", got, want)
	}
	if len(stages) != len(scenario.Analyses) {
		t.Errorf("%d stages for %d analyses", len(stages), len(scenario.Analyses))
	}
	for _, name := range everything {
		if !slices.Contains(scenario.Analyses, name) {
			t.Errorf("all names unknown analysis %q", name)
		}
	}
	for fig, name := range figures {
		if !slices.Contains(scenario.Analyses, name) {
			t.Errorf("%s names unknown analysis %q", fig, name)
		}
	}
}

// TestFlagConflicts: flag combinations that would be dropped silently
// are usage errors (exit 2), and their neighbours still resolve. Each
// flag that only some analyses read is rejected without them and
// accepted with one of them.
func TestFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	spec, err := scenario.LoadPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	spec.Outputs.Observations = filepath.Join(dir, "obs.jsonl")
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	saving := filepath.Join(dir, "saving.json")
	if err := os.WriteFile(saving, b, 0o644); err != nil {
		t.Fatal(err)
	}
	base := options{scale: "medium", seed: 7, slots: 500}
	given := func(flags ...string) map[string]bool {
		set := make(map[string]bool)
		for _, f := range flags {
			set[f] = true
		}
		return set
	}
	for _, tc := range []struct {
		name  string
		what  string // positional argument; empty runs the spec's analyses
		edit  func(*options)
		usage bool
	}{
		{"scale with scenario", "aoe", func(o *options) { o.scenario, o.set = "smoke", given("scale") }, true},
		{"load-obs with save-obs", "aoe", func(o *options) { o.loadObs, o.saveObs = "in.jsonl", "out.jsonl" }, true},
		{"load-obs with outputs.observations", "aoe", func(o *options) { o.scenario, o.loadObs = saving, "in.jsonl" }, true},
		{"scale alone", "aoe", func(o *options) { o.set = given("scale") }, false},
		{"scenario with slots and seed", "aoe", func(o *options) { o.scenario, o.set = "smoke", given("slots", "seed") }, false},
		{"load-obs alone", "aoe", func(o *options) { o.loadObs, o.set = "in.jsonl", given("load-obs") }, false},
		{"save-obs with outputs.observations", "aoe", func(o *options) { o.scenario, o.saveObs = saving, "out.jsonl" }, false},
		{"load-obs with fig2", "fig2", func(o *options) { o.loadObs, o.set = "in.jsonl", given("load-obs") }, true},
		{"load-obs with dist", "dist", func(o *options) { o.loadObs, o.set = "in.jsonl", given("load-obs") }, true},
		{"load-obs with fig8", "fig8", func(o *options) { o.loadObs, o.set = "in.jsonl", given("load-obs") }, false},
		{"load-obs with recovery", "recovery", func(o *options) { o.scenario, o.loadObs, o.set = "oneweb-star", "in.jsonl", given("load-obs") }, false},
		{"load-obs with a spec's aoe", "", func(o *options) { o.scenario, o.loadObs, o.set = "smoke", "in.jsonl", given("load-obs") }, false},
		{"save-model without model", "aoe", func(o *options) { o.saveMdl, o.set = "m.json", given("save-model") }, true},
		{"save-model with a spec without model", "", func(o *options) { o.scenario, o.saveMdl, o.set = "smoke", "m.json", given("save-model") }, true},
		{"save-model with fig8", "fig8", func(o *options) { o.saveMdl, o.set = "m.json", given("save-model") }, false},
		{"full-grid without model", "ext", func(o *options) { o.fullGrid, o.set = true, given("full-grid") }, true},
		{"full-grid with all", "all", func(o *options) { o.fullGrid, o.set = true, given("full-grid") }, false},
		{"predict-addr without drift", "ext", func(o *options) { o.predictAddr, o.set = "127.0.0.1:1", given("predict-addr") }, true},
		{"predict-addr with drift", "drift", func(o *options) { o.predictAddr, o.set = "127.0.0.1:1", given("predict-addr") }, false},
		{"dir without a PNG", "aoe", func(o *options) { o.dir, o.set = "out", given("dir") }, true},
		{"dir with fig3", "fig3", func(o *options) { o.dir, o.set = "out", given("dir") }, false},
		{"dir with a spec's ident", "", func(o *options) { o.scenario, o.dir, o.set = "smoke", "out", given("dir") }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			tc.edit(&opt)
			_, err := loadSpec(tc.what, opt)
			var usage usageError
			if got := errors.As(err, &usage); got != tc.usage {
				t.Fatalf("loadSpec: %v (usage error %v, want %v)", err, got, tc.usage)
			}
			if !tc.usage && err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, args := range [][]string{
		{"-scenario", "smoke", "-scale", "small"},
		{"-scale", "small", "-save-model", "m.json", "fig4"},
	} {
		if _, stderr, code := repro(t, dir, args...); code != 2 {
			t.Fatalf("repro %v: exit %d, stderr:\n%s", args, code, stderr)
		}
	}
}
