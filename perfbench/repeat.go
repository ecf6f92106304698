package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// benchmarkFile is the subset of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatMode runs each workload n times, each run a fresh process with
// its own seed, and prints every end-to-end metric's median, quartiles
// (as Python's statistics.quantiles(values, n=4) computes them) and
// range over the runs that succeeded. A metric whose quartile spread,
// as a share of its median, exceeds its bound is flagged; setup_s is
// exempt from the spread rule, as in the acceptance check. Failed runs
// are reported and make the mode exit non-zero.
func repeatMode(only string, seed int64, seconds float64, n int, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tmin\tmax\tspread\tbound\t")
	flagged, failed := 0, 0
	for _, w := range bf.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, err := runChild(exe, w.Name, s, seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.Name, s, err)
				failed++
				continue
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, e := range bf.EndToEnd {
			vs := values[e.Name]
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			mark := ""
			if e.Name != "setup_s" && spread > e.Bound {
				mark = "  SPREAD ABOVE BOUND"
				flagged++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n",
				w.Name, e.Name, e.Unit, med, q1, q3, slices.Min(vs), slices.Max(vs), spread, e.Bound, mark)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if failed > 0 || flagged > 0 {
		return fmt.Errorf("%d runs failed, %d metric spreads exceed their bounds", failed, flagged)
	}
	return nil
}

// runChild runs one untraced benchmark run in a fresh process and
// parses its result line.
func runChild(exe, workload string, seed int64, seconds float64, stderr io.Writer) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect outputs")
	}
	return &res, nil
}
