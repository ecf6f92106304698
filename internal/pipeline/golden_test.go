package pipeline_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/scenario"
)

// goldenEnv builds a small fixed-seed environment. Each campaign needs
// a fresh one: the scheduler is stateful (hidden load walk, score
// noise), so batch and streaming runs must each start from an
// identical state.
func goldenEnv(t *testing.T, workers int) *experiments.Env {
	t.Helper()
	spec, err := scenario.Starlink("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build(scenario.BuildOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return built.Env
}

func goldenCfg(env *experiments.Env, slots, workers int, oracle bool) core.CampaignConfig {
	return core.CampaignConfig{
		Scheduler:  env.Sched,
		Identifier: env.Ident,
		Start:      env.Start(),
		Slots:      slots,
		Oracle:     oracle,
		Workers:    workers,
	}
}

// TestPipelineMatchesBatchGolden is the acceptance gate for the
// streaming refactor: on a fixed seed, at worker counts 1 and 4, the
// pipeline's record stream, campaign counters, and every incremental
// analyzer must be bit-identical to the batch path (core.RunCampaign
// followed by the slice analyzers). Run under -race in CI.
func TestPipelineMatchesBatchGolden(t *testing.T) {
	for _, tc := range []struct {
		oracle bool
		slots  int
	}{
		{oracle: true, slots: 40},
		{oracle: false, slots: 24},
	} {
		// Per-oracle-mode record streams, keyed by worker count: the
		// streams must also agree across worker counts.
		streams := map[int][]core.SlotRecord{}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("oracle=%v/workers=%d", tc.oracle, workers), func(t *testing.T) {
				// Batch reference.
				envB := goldenEnv(t, workers)
				batch, err := core.RunCampaign(context.Background(), goldenCfg(envB, tc.slots, workers, tc.oracle))
				if err != nil {
					t.Fatal(err)
				}
				obs := batch.Observations()

				// Streaming pipeline on an identical fresh environment,
				// fanning one pass into every incremental consumer.
				envS := goldenEnv(t, workers)
				src := &pipeline.Campaign{Config: goldenCfg(envS, tc.slots, workers, tc.oracle)}
				collect := &pipeline.Collect{}
				counts := &pipeline.CountSkips{}
				aoe := core.NewAOEAccumulator(9)
				az := core.NewAzimuthAccumulator(9)
				la := core.NewLaunchAccumulator("New York")
				su := core.NewSunlitAccumulator(9)
				ds := core.NewDatasetBuilder()
				chosen := pipeline.ChosenOnly()
				p := &pipeline.Pipeline{
					Source: src,
					Sinks: []pipeline.Sink{
						collect,
						counts,
						pipeline.Where(chosen, pipeline.Feed(aoe)),
						pipeline.Where(chosen, pipeline.Feed(az)),
						pipeline.Where(chosen, pipeline.Feed(la)),
						pipeline.Where(chosen, pipeline.Feed(su)),
						pipeline.Where(chosen, pipeline.Feed(ds)),
					},
				}
				if err := p.Run(context.Background()); err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(collect.Records, batch.Records) {
					t.Fatal("pipeline record stream diverges from batch RunCampaign")
				}
				streams[workers] = collect.Records

				stats := src.Stats
				if stats == nil {
					t.Fatal("campaign source left Stats nil after a successful run")
				}
				if stats.Attempted != batch.Attempted || stats.Correct != batch.Correct || stats.Failed != batch.Failed {
					t.Errorf("stream counters %d/%d/%d, batch %d/%d/%d",
						stats.Attempted, stats.Correct, stats.Failed,
						batch.Attempted, batch.Correct, batch.Failed)
				}
				if !reflect.DeepEqual(stats.Skips, batch.Skips) {
					t.Errorf("stream skip histogram %v, batch %v", stats.Skips, batch.Skips)
				}
				if stats.Records != len(batch.Records) || stats.Served != len(obs) {
					t.Errorf("stream saw %d records / %d served, batch %d / %d",
						stats.Records, stats.Served, len(batch.Records), len(obs))
				}
				if counts.Total != len(batch.Records) || counts.Served != len(obs) {
					t.Errorf("sink counted %d records / %d served, batch %d / %d",
						counts.Total, counts.Served, len(batch.Records), len(obs))
				}

				if len(obs) == 0 {
					t.Fatal("golden campaign produced no served observations; pick a different seed")
				}
				assertFinalizeMatches(t, "AOE", aoe.Finalize, func() (any, error) { return core.AnalyzeAOE(obs, 9) })
				assertFinalizeMatches(t, "azimuth", az.Finalize, func() (any, error) { return core.AnalyzeAzimuth(obs, 9) })
				assertFinalizeMatches(t, "launch", la.Finalize, func() (any, error) { return core.AnalyzeLaunch(obs, "New York") })
				assertFinalizeMatches(t, "sunlit", su.Finalize, func() (any, error) { return core.AnalyzeSunlit(obs, 9) })
				assertFinalizeMatches(t, "dataset", ds.Finalize, func() (any, error) { return core.BuildDataset(obs) })
			})
		}
		if len(streams[1]) > 0 && len(streams[4]) > 0 && !reflect.DeepEqual(streams[1], streams[4]) {
			t.Errorf("oracle=%v: streaming records differ between workers=1 and workers=4", tc.oracle)
		}
	}
}

// assertFinalizeMatches compares an accumulator's Finalize output with
// the batch analyzer's, bit for bit, including error parity.
func assertFinalizeMatches[T any](t *testing.T, name string, finalize func() (T, error), batch func() (any, error)) {
	t.Helper()
	got, gerr := finalize()
	want, werr := batch()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: stream err %v, batch err %v", name, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Errorf("%s: stream err %q, batch err %q", name, gerr, werr)
		}
		return
	}
	if !reflect.DeepEqual(any(got), want) {
		t.Errorf("%s: streamed analysis diverges from batch", name)
	}
}
