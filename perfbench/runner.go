package main

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"
)

// instance is one set-up workload. Every unit of work it runs starts
// from the same state, so all units produce the same outputs and cost
// the same work; the timed phase repeats units and reports medians.
type instance interface {
	// unit runs one unit of the timed phase. It calls m.start and m.stop
	// around the timed part; preparation outside that bracket (fresh
	// scheduler, fresh service) is not measured. With tr non-nil the
	// unit is the traced replay: the same work driven call by call
	// through the layers' public APIs, with a span around each call.
	unit(m *meter, tr *tracer) (*unitOut, error)
	// check validates a unit's outputs against the workload's expected
	// shape (accuracy floors, Figure 4 shape, drift behaviour).
	check(u *unitOut) error
	close() error
}

// unitOut is what one unit produced.
type unitOut struct {
	records int
	// out is the per-record output tuple sequence that every unit, and
	// the traced replay, must reproduce exactly.
	out []int64
	// lat holds one latency per client-visible call: the process CPU
	// time of a slot step of the campaign engine, or the wall time of
	// an RPC round trip.
	lat []time.Duration
	// Deterministic quality figures.
	identAcc, top1, failedShare float64
	// detail carries workload-specific figures for check.
	detail any
	// counts are the per-layer work counters of a traced unit, already
	// normalised (per slot, per track, per call, ...).
	counts map[string]float64
	// keep holds state whose live heap the unit's end should measure.
	keep any
}

// setupFunc builds a workload from its seed; short selects reduced
// sizes that keep smoke tests fast.
type setupFunc func(seed int64, short bool) (instance, error)

var workloads = map[string]setupFunc{
	"ident-e2e":    setupIdent,
	"fleet-oracle": setupFleet,
	"online-learn": setupOnline,
}

// workloadNames lists the runnable workloads: first those
// BENCHMARK.json lists, in its order, then fleet-oracle. That one runs
// by name but is left out of BENCHMARK.json: a full check of three
// workloads at 40 s a run takes longer than the hour it is allowed,
// and its layers (index queries, Allocate, accumulators) also run in
// ident-e2e.
var workloadNames = []string{"ident-e2e", "online-learn", "fleet-oracle"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	// setups is how many times the set-up runs; setup_s is their median.
	setups int
	// traceDir receives the span file of a traced run ("" = none).
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minUnits is the fewest timed units a run reports a median over.
const minUnits = 3

// runWorkload sets up the workload, runs its timed (or traced) phase
// and returns the result line. A failed output check returns the
// result with Correct false and a non-nil error.
func runWorkload(opt options, log io.Writer) (*result, error) {
	setup, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
	}
	setups := max(opt.setups, 1)
	var inst instance
	var setupS []float64
	var heap float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
		}
		liveHeapMB() // start every set-up from a collected heap
		t0 := time.Now()
		var err error
		inst, err = setup(opt.seed, opt.short)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", opt.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	heap = liveHeapMB()
	fmt.Fprintf(log, "%s seed %d: set-up %.3fs (median of %d)\n", opt.workload, opt.seed, median(setupS), len(setupS))

	if opt.trace {
		return runTraced(inst, opt, log)
	}

	// The warm-up unit fills caches and grows the heap to its working
	// size; its outputs are the reference every timed unit must repeat.
	var wm meter
	ref, err := inst.unit(&wm, nil)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", opt.workload, err)
	}
	if err := inst.check(ref); err != nil {
		return failedCheck(opt, ref, err)
	}
	heap = max(heap, liveHeapMB())
	ref.keep = nil

	var rates, allocs []float64
	var lat []time.Duration
	records := 0
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for n := 0; n < minUnits || time.Now().Before(deadline); n++ {
		var m meter
		u, err := inst.unit(&m, nil)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", opt.workload, n, err)
		}
		if !slices.Equal(u.out, ref.out) {
			return failedCheck(opt, u, fmt.Errorf("unit %d outputs differ from the warm-up unit's", n))
		}
		heap = max(heap, liveHeapMB())
		u.keep = nil
		rates = append(rates, float64(u.records)/m.cpu().Seconds())
		allocs = append(allocs, float64(m.allocBytes())/float64(u.records))
		lat = append(lat, u.lat...)
		records += u.records
		fmt.Fprintf(log, "  unit %d: %d records, wall %v, cpu %v, %.1f records/cpu-s, %d GC\n",
			n, u.records, m.wall().Round(time.Millisecond), m.cpu().Round(time.Millisecond), rates[len(rates)-1], m.gcCycles())
	}
	return &result{
		Correct:   true,
		Attempted: records,
		Failed:    0, // a failed operation fails the run
		Metrics: map[string]metric{
			"setup_s":                {median(setupS), "s"},
			"records_per_cpu_s":      {median(rates), "1/s"},
			"alloc_bytes_per_record": {median(allocs), "B"},
			"peak_live_heap_mb":      {heap, "MB"},
			"call_p50_us":            {median(durationsUS(lat)), "us"},
			"ident_accuracy":         {ref.identAcc, "share"},
			"top1_accuracy":          {ref.top1, "share"},
		},
	}, nil
}

// failedCheck reports a run whose outputs failed a check.
func failedCheck(opt options, u *unitOut, err error) (*result, error) {
	return &result{Correct: false, Attempted: max(u.records, 1), Metrics: map[string]metric{}},
		fmt.Errorf("%s seed %d: output check failed: %w", opt.workload, opt.seed, err)
}

// runTraced runs pairs of units — the engine untraced, then the
// traced replay — until the time is up, checks that each replay
// reproduced the engine's outputs exactly, and reports per-layer
// metrics from the last traced unit plus the median tracing overhead.
func runTraced(inst instance, opt options, log io.Writer) (*result, error) {
	var overheads []float64
	var last *unitOut
	var lastTr *tracer
	var lastWall time.Duration
	var lastGC uint64
	records := 0
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		var um meter
		plain, err := inst.unit(&um, nil)
		if err != nil {
			return nil, fmt.Errorf("%s untraced unit: %w", opt.workload, err)
		}
		if err := inst.check(plain); err != nil {
			return failedCheck(opt, plain, err)
		}
		plain.keep = nil
		liveHeapMB()
		var tm meter
		tr := newTracer()
		traced, err := inst.unit(&tm, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced unit: %w", opt.workload, err)
		}
		if !slices.Equal(traced.out, plain.out) {
			return failedCheck(opt, traced, fmt.Errorf("traced replay outputs differ from the untraced engine's"))
		}
		traced.keep = nil
		overheads = append(overheads, tm.wall().Seconds()/um.wall().Seconds()-1)
		last, lastTr, lastWall, lastGC = traced, tr, tm.wall(), tm.gcCycles()
		records += traced.records
		fmt.Fprintf(log, "  pair %d: untraced %v, traced %v\n", n, um.wall().Round(time.Millisecond), tm.wall().Round(time.Millisecond))
		liveHeapMB()
	}

	self, err := lastTr.selfTimes()
	if err != nil {
		return nil, err
	}
	perRec := func(d time.Duration) float64 {
		return float64(d) / float64(time.Microsecond) / float64(last.records)
	}
	ms := map[string]metric{}
	var covered time.Duration
	for l := layer(0); l < numLayers; l++ {
		name := timeMetric[l]
		v := ms[name]
		v.Unit = "us"
		v.Value += perRec(self[l])
		ms[name] = v
		covered += self[l]
	}
	for _, c := range counterMetrics {
		ms[c.name] = metric{last.counts[c.name], c.unit}
	}
	ms["failed_share"] = metric{last.failedShare, "share"}
	ms["runtime.gc_cycles"] = metric{float64(lastGC) * 1000 / float64(last.records), "cycles/krec"}
	coverage := covered.Seconds() / lastWall.Seconds()
	ms["trace.coverage"] = metric{coverage, "share"}
	ms["trace.overhead"] = metric{median(overheads), "share"}
	ms["trace.wall_us"] = metric{perRec(lastWall), "us"}

	if opt.traceDir != "" {
		path := filepath.Join(opt.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", opt.workload, opt.seed))
		if err := lastTr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "  spans written to %s\n", path)
	}
	res := &result{Correct: true, Attempted: records, Failed: 0, Metrics: ms}
	if coverage < minCoverage {
		res.Correct = false
		return res, fmt.Errorf("%s: layer spans cover %.3f of traced wall time, below %.2f", opt.workload, coverage, minCoverage)
	}
	return res, nil
}

// minCoverage is the share of traced wall time the layer spans must
// cover: the layer self-times add up to the traced wall time within a
// 5% gap.
const minCoverage = 0.95

// counterMetrics are the per-layer work counts a traced unit reports;
// a workload that does not exercise a layer reports 0 for it.
var counterMetrics = []struct{ name, unit string }{
	{"constellation.sats_propagated", "sats/slot"},
	{"constellation.visible_per_query", "sats/query"},
	{"scheduler.unserved_share", "share"},
	{"core.candidates_per_slot", "cands/ident"},
	{"core.candidate_samples", "samples/ident"},
	{"obstruction.track_px", "px/track"},
	{"dtw.cells", "cells/match"},
	{"dtw.pruned_share", "share"},
	{"ml.refits", "count"},
	{"ml.fit_rows", "rows/fit"},
	{"predict.drift_events", "count"},
	{"dishrpc.bytes_per_call", "B/call"},
	{"dishrpc.call_p99_us", "us"},
	{"dishrpc.call_samples", "count"},
	{"dishrpc.call_errors", "count"},
}
