package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) (endToEnd, perLayer []metricSpec, workloads []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	return bf.EndToEnd, bf.PerLayer, workloads
}

// wantMetrics checks that got holds exactly the named metrics, each
// with its declared unit.
func wantMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, want %q", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestWorkloadsShort runs every workload at reduced size on two seeds,
// untraced and traced: each prints every named metric with its unit
// and passes its output checks, and the traced replay reproduces the
// engine's outputs.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer, names := loadSpec(t)
	if len(names) > len(workloadNames) || !slices.Equal(names, workloadNames[:len(names)]) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, seed := range []int64{3, 4} {
			t.Run(w, func(t *testing.T) {
				opt := options{workload: w, seed: seed, seconds: 0.01, short: true, setups: 2}
				res, err := runWorkload(opt, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				wantMetrics(t, res.Metrics, endToEnd)
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}

				opt.trace, opt.setups, opt.traceDir = true, 1, t.TempDir()
				res, err = runWorkload(opt, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Errorf("traced result %+v", res)
				}
				wantMetrics(t, res.Metrics, perLayer)
				checkSpanFile(t, opt.traceDir)
			})
		}
	}
}

// checkSpanFile checks the written spans: ids in order, parents
// earlier, children inside their parents.
func checkSpanFile(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "trace-*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("span files %v (%v)", files, err)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []spanJSON
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	for i, s := range spans {
		if s.ID != int32(i+1) || s.End < s.Start {
			t.Fatalf("span %+v at line %d", s, i+1)
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %+v outside its parent %+v", s, p)
			}
		}
	}
}

// TestResultLine runs the command line end to end: the last line of
// standard output is one JSON object with exactly the four result keys.
func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	code := cli([]string{"--workload", "fleet-oracle", "--seed", "5", "--seconds", "0.01", "--short"}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result has %d keys, want 4", len(obj))
	}
	if code := cli([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4) for these inputs.
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9, 4, 2, 8, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{4, 8}, 3, 9},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{parent: 0, layer: lCall, start: 0, end: 100},
		{parent: 1, layer: lHandle, start: 10, end: 90},
		{parent: 2, layer: lRank, start: 20, end: 30},
	}
	tr.addTail(lFit, 2, 40)
	self, err := tr.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	want := map[layer]int64{lCall: 20, lHandle: 30, lRank: 10, lFit: 40}
	var sum int64
	for l, d := range self {
		if int64(d) != want[layer(l)] {
			t.Errorf("%s self %d, want %d", layerNames[l], d, want[layer(l)])
		}
		sum += int64(d)
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}
