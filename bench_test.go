// Package repro's root benchmark harness: one benchmark per paper
// table/figure plus the ablations DESIGN.md calls out. Each benchmark
// times the experiment's analysis path and reports its headline metric
// via b.ReportMetric, so `go test -bench=. -benchmem` regenerates the
// whole evaluation in one run (see EXPERIMENTS.md for the recorded
// numbers).
package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/ml"
	"repro/internal/obstruction"
	"repro/internal/pipeline"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
)

// benchEnv lazily builds one shared environment + observation set so
// individual benchmarks measure analysis, not setup.
var (
	benchOnce sync.Once
	benchErr  error
	bEnv      *experiments.Env
	bObs      []core.Observation
	bData     *ml.Dataset
)

func benchSetup(b *testing.B) (*experiments.Env, []core.Observation, *ml.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		bEnv, benchErr = experiments.NewEnv(experiments.Config{Scale: experiments.Medium, Seed: 7})
		if benchErr != nil {
			return
		}
		bObs, benchErr = bEnv.Observations(400)
		if benchErr != nil {
			return
		}
		bData, benchErr = core.BuildDataset(bObs)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return bEnv, bObs, bData
}

// BenchmarkFig2RTTTrace regenerates the Figure 2 artifact: a 2-minute
// RTT trace at 1 probe / 20 ms with 15-second regime changes.
func BenchmarkFig2RTTTrace(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var res *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = env.Fig2("Madrid", 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.WindowMedians)), "slots")
}

// BenchmarkStatWindows regenerates the §3 Mann-Whitney analysis and
// reports the fraction of consecutive windows that differ at p < .05
// (paper: all of them).
func BenchmarkStatWindows(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := env.WindowStats(3 * time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		frac = 0
		for _, r := range res {
			frac += r.SignificantFrac
		}
		frac /= float64(len(res))
	}
	b.ReportMetric(frac*100, "sig%")
}

// BenchmarkObstructionXOR regenerates the Figure 3 step: XOR two full
// obstruction-map snapshots and recover the isolated track.
func BenchmarkObstructionXOR(b *testing.B) {
	env, _, _ := benchSetup(b)
	fig3, err := env.Fig3("Iowa")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var track int
	for i := 0; i < b.N; i++ {
		diff := obstruction.XOR(fig3.Prev, fig3.Cur)
		track = len(diff.Track())
	}
	b.ReportMetric(float64(track), "track_px")
}

// BenchmarkIdentification regenerates the §4 validation: the full
// paint → XOR → DTW pipeline across a slot of campaign, reporting
// accuracy against ground truth (paper pilot: >99%).
func BenchmarkIdentification(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := env.IdentValidation(12, false)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc*100, "acc%")
}

// benchIdentifySlot times one slot of the §4 identification — XOR,
// track recovery, candidate sampling, DTW matching — exactly as the
// campaign engine invokes it: constellation snapshot precomputed and
// a per-worker matcher reused across iterations.
func benchIdentifySlot(b *testing.B, brute bool) {
	env, _, _ := benchSetup(b)
	fig3, err := env.Fig3("Iowa")
	if err != nil {
		b.Fatal(err)
	}
	var vp = env.Terminals[0].VantagePoint
	for _, t := range env.Terminals {
		if t.Name == "Iowa" {
			vp = t.VantagePoint
		}
	}
	slotStart := env.Start().Add(scheduler.Period)
	snap := env.Cons.Snapshot(slotStart)
	matcher := &dtw.Matcher{}
	orig := env.Ident.DisablePruning
	env.Ident.DisablePruning = brute
	defer func() { env.Ident.DisablePruning = orig }()
	b.ReportAllocs()
	b.ResetTimer()
	var ident core.Identification
	for i := 0; i < b.N; i++ {
		ident, err = env.Ident.IdentifyFromMapsMatcher(fig3.Prev, fig3.Cur, vp, slotStart, snap, matcher)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ident.SatID), "sat_id")
	b.ReportMetric(ident.Margin, "margin")
}

// BenchmarkIdentifySlot is the pruned-matcher identification path the
// campaign uses.
func BenchmarkIdentifySlot(b *testing.B) { benchIdentifySlot(b, false) }

// BenchmarkIdentifySlotBrute is the same slot through brute-force
// dtw.Identify; compare ns/op against BenchmarkIdentifySlot for the
// pruning speedup (the two are bit-identical).
func BenchmarkIdentifySlotBrute(b *testing.B) { benchIdentifySlot(b, true) }

// BenchmarkCandidateTracks times the §4 candidate stage on its own:
// the Iowa terminal's field of view over a precomputed snapshot, every
// in-view satellite sampled across the slot and projected onto the
// plot plane. It goes through the public CandidateTracksFromSnapshot,
// the entry point of live captures and traced replays; the campaign
// engine runs the same kernel over its indexed field of view with
// per-worker buffers (pinned at 0 allocs by TestCandidateTracksZeroAlloc).
func BenchmarkCandidateTracks(b *testing.B) {
	env, _, _ := benchSetup(b)
	vp := env.Terminals[0].VantagePoint
	for _, t := range env.Terminals {
		if t.Name == "Iowa" {
			vp = t.VantagePoint
		}
	}
	slotStart := env.Start().Add(scheduler.Period)
	snap := env.Cons.Snapshot(slotStart)
	b.ReportAllocs()
	b.ResetTimer()
	var cands []dtw.Candidate
	for i := 0; i < b.N; i++ {
		cands, _ = env.Ident.CandidateTracksFromSnapshot(snap, vp, slotStart)
	}
	samples := 0
	for _, c := range cands {
		samples += len(c.Track)
	}
	b.ReportMetric(float64(len(cands)), "cands")
	b.ReportMetric(float64(samples), "samples")
}

// benchCampaign times the full non-oracle campaign loop (paint → XOR
// → DTW per terminal per slot) at a given worker-pool size.
func benchCampaign(b *testing.B, workers int) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
			Scheduler:  env.Sched,
			Identifier: env.Ident,
			Start:      env.Start(),
			Slots:      12,
			Workers:    workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy()
	}
	b.ReportMetric(acc*100, "acc%")
}

// BenchmarkCampaignSerial is the single-worker baseline for the
// campaign engine.
func BenchmarkCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignParallel runs the same campaign on the worker pool
// (4 workers = one per study terminal). Output is byte-identical to
// the serial engine; compare ns/op against BenchmarkCampaignSerial
// for the speedup.
func BenchmarkCampaignParallel(b *testing.B) { benchCampaign(b, 4) }

// BenchmarkCampaignParallelTelemetry is BenchmarkCampaignParallel with
// the full telemetry bundle live — registry-backed counters, gauges,
// matcher stats, and a 4096-deep decision trace. The overhead
// acceptance number: ns/op must stay within 3% of
// BenchmarkCampaignParallel (the nil-bundle Nop path). Record both
// with scripts/bench.sh (BENCH_PR5.json).
func BenchmarkCampaignParallelTelemetry(b *testing.B) {
	env, _, _ := benchSetup(b)
	reg := telemetry.NewRegistry()
	m := core.NewCampaignMetrics(reg)
	m.Trace = telemetry.NewDecisionTrace(4096)
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunCampaign(context.Background(), core.CampaignConfig{
			Scheduler:  env.Sched,
			Identifier: env.Ident,
			Start:      env.Start(),
			Slots:      12,
			Workers:    4,
			Metrics:    m,
		})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy()
	}
	b.ReportMetric(acc*100, "acc%")
}

// BenchmarkFig4AOECDF regenerates Figure 4 and reports the median AOE
// lift of chosen over available satellites (paper: 22.9 deg).
func BenchmarkFig4AOECDF(b *testing.B) {
	env, obs, _ := benchSetup(b)
	b.ReportAllocs()
	var lift float64
	for i := 0; i < b.N; i++ {
		a, err := env.Fig4(obs)
		if err != nil {
			b.Fatal(err)
		}
		lift = a.MedianLiftDeg
	}
	b.ReportMetric(lift, "lift_deg")
}

// BenchmarkFig5AzimuthCDF regenerates Figure 5 and reports the mean
// north-pick fraction over unobstructed sites (paper: 82%).
func BenchmarkFig5AzimuthCDF(b *testing.B) {
	env, obs, _ := benchSetup(b)
	b.ReportAllocs()
	var north float64
	for i := 0; i < b.N; i++ {
		a, err := env.Fig5(obs)
		if err != nil {
			b.Fatal(err)
		}
		north = 0
		n := 0
		for name, f := range a.NorthChosenFrac {
			if name == "New York" {
				continue
			}
			north += f
			n++
		}
		north /= float64(n)
	}
	b.ReportMetric(north*100, "north%")
}

// BenchmarkFig6LaunchCorr regenerates Figure 6 and reports the mean
// Pearson correlation between launch date and pick probability
// (paper: 0.41).
func BenchmarkFig6LaunchCorr(b *testing.B) {
	env, obs, _ := benchSetup(b)
	b.ReportAllocs()
	var r float64
	for i := 0; i < b.N; i++ {
		a, err := env.Fig6(obs)
		if err != nil {
			b.Fatal(err)
		}
		r = a.MeanPearson
	}
	b.ReportMetric(r, "pearson")
}

// BenchmarkFig7SunlitAOE regenerates Figure 7 / §5.3 and reports the
// sunlit pick rate in mixed slots (paper: 72.3%).
func BenchmarkFig7SunlitAOE(b *testing.B) {
	env, obs, _ := benchSetup(b)
	b.ReportAllocs()
	var rate float64
	for i := 0; i < b.N; i++ {
		a, err := env.Fig7(obs)
		if err != nil {
			b.Fatal(err)
		}
		rate = a.SunlitPickRate
	}
	b.ReportMetric(rate*100, "sunlit%")
}

// benchFig8 regenerates Figure 8 — train the random forest with the
// paper's protocol, report holdout top-5 accuracy (paper: 65% vs 22%
// baseline) — with the model-training pool pinned to a given size.
func benchFig8(b *testing.B, workers int) {
	env, _, data := benchSetup(b)
	b.ReportAllocs()
	var model5, base5 float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.QuickModelConfig(env.Seed + 1)
		cfg.Workers = workers
		res, err := core.TrainModel(data, cfg)
		if err != nil {
			b.Fatal(err)
		}
		model5 = res.ModelTopK[4]
		base5 = res.BaselineTopK[4]
	}
	b.ReportMetric(model5*100, "model_top5%")
	b.ReportMetric(base5*100, "base_top5%")
}

// BenchmarkFig8TopK trains on the full worker pool (Workers 0 =
// GOMAXPROCS); the forest is bit-identical to the serial run's.
func BenchmarkFig8TopK(b *testing.B) { benchFig8(b, 0) }

// BenchmarkFig8TopKSerial is the one-worker baseline; compare ns/op
// against BenchmarkFig8TopK for the training parallelism gain.
func BenchmarkFig8TopKSerial(b *testing.B) { benchFig8(b, 1) }

// BenchmarkAblationMatcher swaps DTW for the nearest-endpoint matcher
// and reports its identification accuracy for comparison with
// BenchmarkIdentification.
func BenchmarkAblationMatcher(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := env.IdentValidation(12, true)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc*100, "acc%")
}

// BenchmarkAblationPropagator runs the identification pipeline on a
// constellation propagated with the two-body+J2 baseline instead of
// SGP4.
func BenchmarkAblationPropagator(b *testing.B) {
	env, err := experiments.NewEnv(experiments.Config{Scale: experiments.Small, Seed: 7, UseKeplerJ2: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := env.IdentValidation(12, false)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc*100, "acc%")
}

// BenchmarkAblationModel compares a single CART tree against the
// forest on the Figure 8 task.
func BenchmarkAblationModel(b *testing.B) {
	_, _, data := benchSetup(b)
	b.ReportAllocs()
	var top5 float64
	for i := 0; i < b.N; i++ {
		res, err := core.TrainModel(data, core.ModelConfig{
			Folds: 3,
			Grid:  []ml.ForestConfig{{NumTrees: 1, Tree: ml.TreeConfig{MaxDepth: 10, MaxFeatures: 1 << 30}}},
			Seed:  7,
		})
		if err != nil {
			b.Fatal(err)
		}
		top5 = res.ModelTopK[4]
	}
	b.ReportMetric(top5*100, "tree_top5%")
}

// sampleLiveHeap folds the current live heap above base into peak. A
// forced GC first makes HeapAlloc the live set rather than live plus
// uncollected garbage; it is expensive, so callers sample sparsely.
func sampleLiveHeap(base uint64, peak *uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > base && m.HeapAlloc-base > *peak {
		*peak = m.HeapAlloc - base
	}
}

// BenchmarkCampaignMemory is the O(1)-memory claim for the streaming
// pipeline, measured. An oracle campaign runs source → stage → sink
// at 60 slots and at 10× that, in two sink configurations: "stream"
// encodes observations record-at-a-time to a discarded JSONL stream
// and keeps only skip counters, "batch" materializes every record and
// observation the way CampaignResult does. Both sample the live heap
// (forced GC) at the same fixed cadence as records flow and once
// after the run with results still reachable. final_live_MB is the
// headline: flat across the 10× jump for stream — it holds a reorder
// window, not the campaign — and linear in slots for batch. Record
// with scripts/bench.sh (BENCH_PR4.json).
func BenchmarkCampaignMemory(b *testing.B) {
	for _, tc := range []struct {
		mode  string
		slots int
	}{
		{"stream", 60},
		{"stream", 600},
		{"batch", 60},
		{"batch", 600},
	} {
		b.Run(fmt.Sprintf("%s/slots=%d", tc.mode, tc.slots), func(b *testing.B) {
			env, _, _ := benchSetup(b)
			cfg := core.CampaignConfig{
				Scheduler:  env.Sched,
				Identifier: env.Ident,
				Start:      env.Start(),
				Slots:      tc.slots,
				Oracle:     true,
				Workers:    4,
			}
			b.ReportAllocs()
			var peak, final uint64
			var served int
			for i := 0; i < b.N; i++ {
				runtime.GC()
				var base runtime.MemStats
				runtime.ReadMemStats(&base)
				peak, final = 0, 0

				// A fixed 8 samples per run, whatever the slot count:
				// the in-flight window fluctuates, and sampling a longer
				// run more often would bias its observed max upward.
				every := tc.slots * len(env.Terminals) / 8
				if every == 0 {
					every = 1
				}
				n := 0
				sample := pipeline.SinkFunc(func(rec *pipeline.Record) error {
					if n++; n%every == 0 {
						sampleLiveHeap(base.HeapAlloc, &peak)
					}
					return nil
				})

				src := &pipeline.Campaign{Config: cfg}
				counts := &pipeline.CountSkips{}
				collect := &pipeline.Collect{}
				obs := &pipeline.CollectObservations{}
				sinks := []pipeline.Sink{sample}
				if tc.mode == "batch" {
					sinks = append(sinks, collect, pipeline.Where(pipeline.ChosenOnly(), obs))
				} else {
					sinks = append(sinks, counts, pipeline.Where(pipeline.ChosenOnly(), pipeline.WriteObservations(io.Discard)))
				}
				p := &pipeline.Pipeline{Source: src, Sinks: sinks}
				if err := p.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				sampleLiveHeap(base.HeapAlloc, &final)
				if final > peak {
					peak = final
				}
				runtime.KeepAlive(collect)
				runtime.KeepAlive(obs)
				if tc.mode == "batch" {
					served = len(obs.Obs)
				} else {
					served = counts.Served
				}
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak_live_MB")
			b.ReportMetric(float64(final)/(1<<20), "final_live_MB")
			b.ReportMetric(float64(served), "served")
		})
	}
}

// benchFleetTerminals spreads n synthetic terminals over the inhabited
// latitudes on a golden-angle spiral, mirroring the fleet fixture in
// internal/core's tests.
func benchFleetTerminals(n int) []scheduler.Terminal {
	const goldenDeg = 137.50776405003785
	terms := make([]scheduler.Terminal, 0, n)
	for i := 0; i < n; i++ {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		lon := mod360(float64(i)*goldenDeg) - 180
		terms = append(terms, scheduler.Terminal{VantagePoint: geo.VantagePoint{
			Name:           fmt.Sprintf("fleet-%06d", i),
			Location:       astro.Geodetic{LatDeg: -60 + 120*frac, LonDeg: lon},
			UTCOffsetHours: int(lon / 15),
		}, Priority: 1})
	}
	return terms
}

func mod360(v float64) float64 {
	v = v - 360*float64(int(v/360))
	if v < 0 {
		v += 360
	}
	return v
}

// benchFleetCampaign runs a short oracle campaign over n terminals and
// reports records/s and slots/s. Snapshots come from a shared cache
// (warm after the first iteration), so the timed cost is the per-slot
// visibility work itself: the scheduler's candidate queries plus every
// terminal's available set.
func benchFleetCampaign(b *testing.B, n int, disableIndex bool, snapWorkers int) {
	env, _, _ := benchSetup(b)
	cache := constellation.NewSnapshotCache(0, nil)
	cache.SetSnapshotWorkers(snapWorkers)
	sched, err := scheduler.NewGlobal(scheduler.Config{
		Constellation: env.Cons,
		Terminals:     benchFleetTerminals(n),
		Seed:          7,
		DisableIndex:  disableIndex,
		Snapshots:     cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	const slots = 2
	cfg := core.CampaignConfig{
		Scheduler:    sched,
		Identifier:   env.Ident,
		Start:        env.Start(),
		Slots:        slots,
		Oracle:       true,
		Workers:      1,
		DisableIndex: disableIndex,
		Snapshots:    cache,
	}
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i := 0; i < b.N; i++ {
		records = 0
		if _, err := core.RunCampaignStream(context.Background(), cfg, func(core.SlotRecord) error {
			records++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(records*b.N)/elapsed, "records/s")
		b.ReportMetric(float64(slots*b.N)/elapsed, "slots/s")
	}
}

// BenchmarkCampaignFleet is the fleet-scaling acceptance benchmark
// (ROADMAP item 1): oracle campaigns from 4 terminals to 100k, indexed
// vs. the linear scan. The headline is records/s staying roughly flat
// for the indexed engine as the fleet grows — per-slot cost
// near-O(visible) per terminal — against the linear scan's O(sats) per
// terminal. Linear stops at 10k (100k × 4k satellite observations per
// slot is pointlessly slow); outputs are byte-identical either way
// (TestCampaignFleetIdentical). Record with scripts/bench.sh
// (BENCH_PR6.json; rerecorded with the zero-alloc snapshot engine as
// BENCH_PR8.json). The parsnap group is the PR8 ablation: the same
// indexed campaign with snapshot propagation fanned out across
// GOMAXPROCS workers — byte-identical output, only the snapshot fill
// cost moves. On a single-core host it matches indexed/ to within
// noise; the fan-out needs real cores to show its speedup.
func BenchmarkCampaignFleet(b *testing.B) {
	for _, n := range []int{4, 100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("indexed/terminals=%d", n), func(b *testing.B) {
			benchFleetCampaign(b, n, false, 1)
		})
	}
	for _, n := range []int{4, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("linear/terminals=%d", n), func(b *testing.B) {
			benchFleetCampaign(b, n, true, 1)
		})
	}
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("parsnap/terminals=%d", n), func(b *testing.B) {
			benchFleetCampaign(b, n, false, -1)
		})
	}
}

// BenchmarkSchedulerAllocate measures one global allocation round
// (4 terminals) including the constellation snapshot.
func BenchmarkSchedulerAllocate(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	start := env.Start()
	for i := 0; i < b.N; i++ {
		env.Sched.Allocate(start.Add(time.Duration(i) * 15 * time.Second))
	}
}

// BenchmarkExtHemisphere regenerates the §8 hemisphere-generalization
// experiment, reporting Sydney's (negative) north skew.
func BenchmarkExtHemisphere(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var sydney float64
	for i := 0; i < b.N; i++ {
		res, err := env.HemisphereComparison(60)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Southern {
			if s.Terminal == "Sydney" {
				sydney = s.NorthSkew()
			}
		}
	}
	b.ReportMetric(sydney, "sydney_skew")
}

// BenchmarkExtGSOAblation measures how much of the north preference
// the exclusion zone explains.
func BenchmarkExtGSOAblation(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var with, without float64
	for i := 0; i < b.N; i++ {
		res, err := env.GSOAblation(60)
		if err != nil {
			b.Fatal(err)
		}
		with, without = res.NorthFracWithGSO, res.NorthFracWithoutGSO
	}
	b.ReportMetric(with*100, "north_gso%")
	b.ReportMetric(without*100, "north_nogso%")
}

// BenchmarkExtLoadHypothesis runs the §8 load-bound test: model
// accuracy against the default vs fully deterministic scheduler.
func BenchmarkExtLoadHypothesis(b *testing.B) {
	env, _, _ := benchSetup(b)
	b.ReportAllocs()
	var def, det float64
	for i := 0; i < b.N; i++ {
		res, err := env.LoadSensitivity(200)
		if err != nil {
			b.Fatal(err)
		}
		def, det = res.WithHiddenLoad, res.Deterministic
	}
	b.ReportMetric(def*100, "default_top5%")
	b.ReportMetric(det*100, "determ_top5%")
}
