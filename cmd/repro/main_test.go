package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
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
		args   []string
	}{
		{"all", []string{"-scale", "small", "-slots", "60", "all"}},
		{"dist", []string{"-scale", "small", "-slots", "40", "dist"}},
		{"drift", []string{"-scale", "small", "-slots", "200", "drift"}},
		{"scenario-smoke", []string{"-scenario", "smoke"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(exe, tc.args...)
			cmd.Dir = t.TempDir()
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("repro %v: %v", tc.args, err)
			}
			got := wallClock.ReplaceAll(out, []byte("in N.Ns"))
			if !bytes.Equal(got, want) {
				t.Fatalf("repro %v: stdout differs from testdata/%s.golden; %s", tc.args, tc.golden, firstDiff(got, want))
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
