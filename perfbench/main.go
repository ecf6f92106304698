// Command perfbench is the repository benchmark. It drives workloads
// through the reproduction's public APIs — the non-oracle
// identification pipeline (ident-e2e) and predictd serving over
// dishrpc (online-learn), which BENCHMARK.json lists, and fleet-scale
// oracle allocation (fleet-oracle), which runs by name only — checks
// their outputs, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload ident-e2e --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// runs the traced replay and reports the per-layer metrics. --repeat N
// runs every workload N times with consecutive seeds and prints each
// end-to-end metric's median, quartiles and range, flagging spreads
// wider than the metric's bound. See README.md for the metric
// definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	// One P: the workloads run one goroutine at a time, and a second P
	// would only run idle-priority GC mark workers and spinning threads
	// whose CPU time depends on how busy the host's other cores are.
	runtime.GOMAXPROCS(1)
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ident-e2e, online-learn or fleet-oracle (repeat mode: every BENCHMARK.json workload when empty)")
	seed := fs.Int64("seed", 1, "workload seed (repeat mode: the first of N consecutive seeds)")
	seconds := fs.Float64("seconds", 40, "measurement time per run")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	repeat := fs.Int("repeat", 0, "repeat mode: run each workload this many times and print spreads")
	short := fs.Bool("short", false, "reduced workload sizes (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *repeat > 0 {
		if err := repeatMode(*workload, *seed, *seconds, *repeat, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	opt := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		short:    *short,
		setups:   3,
		traceDir: filepath.Join(".bench_build", "perfbench"),
	}
	if opt.trace {
		opt.setups = 1 // set-up time is an end-to-end metric only
	}
	res, err := runWorkload(opt, stderr)
	if res != nil {
		if eerr := json.NewEncoder(stdout).Encode(res); eerr != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", eerr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
