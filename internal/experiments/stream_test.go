package experiments_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
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
	spec.Campaign.Workers = workers
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return built.Env
}

// TestStreamMatchesBatchGolden is the gate for the streaming consumers:
// on a fixed seed, at worker counts 1 and 4, in oracle and measured
// mode, the record stream the engine emits, the incremental analyzers
// fed from it, StreamObservations and IdentValidation must all be
// bit-identical to the batch path (a campaign's records kept, its
// served rows fed to the same analyzers in a loop afterwards) over a
// campaign from the same scheduler state. Run under -race in CI.
func TestStreamMatchesBatchGolden(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		oracle bool
		slots  int
	}{
		{oracle: true, slots: 40},
		{oracle: false, slots: 24},
	} {
		// Per-mode record streams, keyed by worker count: the streams
		// must also agree across worker counts.
		streams := map[int][]core.SlotRecord{}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("oracle=%v/workers=%d", tc.oracle, workers), func(t *testing.T) {
				batch, err := runCampaign(ctx, goldenEnv(t, workers).CampaignConfig(tc.slots, tc.oracle))
				if err != nil {
					t.Fatal(err)
				}
				obs := servedObservations(batch)
				if len(obs) == 0 {
					t.Fatal("golden campaign produced no served observations; pick a different seed")
				}

				// The engine's emit, fanned out to every incremental
				// consumer in one pass.
				var recs []core.SlotRecord
				aoe := core.NewAOEAccumulator(9)
				az := core.NewAzimuthAccumulator(9)
				la := core.NewLaunchAccumulator("New York")
				su := core.NewSunlitAccumulator(9)
				ds := core.NewDatasetBuilder()
				consumers := []core.ObservationConsumer{aoe, az, la, su, ds}
				st, err := core.RunCampaignStream(ctx, goldenEnv(t, workers).CampaignConfig(tc.slots, tc.oracle),
					func(rec core.SlotRecord) error {
						recs = append(recs, keepRecord(rec))
						if rec.ChosenIdx < 0 {
							return nil
						}
						for _, c := range consumers {
							if err := c.Add(rec.Observation); err != nil {
								return err
							}
						}
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(recs, batch.Records) {
					t.Fatal("streamed records diverge from the kept batch")
				}
				streams[workers] = recs
				assertStatsMatch(t, st, batch)
				bAOE := core.NewAOEAccumulator(9)
				bAz := core.NewAzimuthAccumulator(9)
				bLa := core.NewLaunchAccumulator("New York")
				bSu := core.NewSunlitAccumulator(9)
				bDs := core.NewDatasetBuilder()
				feed(t, obs, bAOE, bAz, bLa, bSu, bDs)
				assertMatches(t, "AOE", aoe.Finalize, bAOE.Finalize)
				assertMatches(t, "azimuth", az.Finalize, bAz.Finalize)
				assertMatches(t, "launch", la.Finalize, bLa.Finalize)
				assertMatches(t, "sunlit", su.Finalize, bSu.Finalize)
				assertMatches(t, "dataset", ds.Finalize, bDs.Finalize)

				if !tc.oracle {
					// The measured stream's consumer: identification
					// scoring, folded record by record.
					id, err := goldenEnv(t, workers).IdentValidation(tc.slots, false)
					if err != nil {
						t.Fatal(err)
					}
					var margins []float64
					for _, rec := range batch.Records {
						if rec.SkipReason == "" && rec.Margin > 0 {
							margins = append(margins, rec.Margin)
						}
					}
					want := experiments.IdentResult{
						Attempted: batch.Attempted, Correct: batch.Correct, Failed: batch.Failed,
						Accuracy: batch.Accuracy(), MedianMargin: stats.Median(margins),
					}
					if *id != want {
						t.Errorf("IdentValidation = %+v, batch %+v", *id, want)
					}
					return
				}

				// StreamObservations hands every consumer the chosen rows
				// in stream order.
				var first, second []core.Observation
				st, err = goldenEnv(t, workers).StreamObservations(tc.slots,
					func(o core.Observation) error { first = append(first, o.Clone()); return nil },
					func(o core.Observation) error { second = append(second, o.Clone()); return nil })
				if err != nil {
					t.Fatal(err)
				}
				assertStatsMatch(t, st, batch)
				if !reflect.DeepEqual(first, obs) || !reflect.DeepEqual(second, obs) {
					t.Errorf("StreamObservations rows diverge from batch Observations (%d, %d vs %d)",
						len(first), len(second), len(obs))
				}
			})
		}
		if len(streams[1]) > 0 && len(streams[4]) > 0 && !reflect.DeepEqual(streams[1], streams[4]) {
			t.Errorf("oracle=%v: streamed records differ between workers=1 and workers=4", tc.oracle)
		}
	}
}

// assertStatsMatch compares a streamed campaign's summary with the
// batch result's counters.
func assertStatsMatch(t *testing.T, st *core.CampaignStats, batch *campaignRun) {
	t.Helper()
	if st.Attempted != batch.Attempted || st.Correct != batch.Correct || st.Failed != batch.Failed {
		t.Errorf("stream counters %d/%d/%d, batch %d/%d/%d",
			st.Attempted, st.Correct, st.Failed, batch.Attempted, batch.Correct, batch.Failed)
	}
	if !reflect.DeepEqual(st.Skips, batch.Skips) {
		t.Errorf("stream skip histogram %v, batch %v", st.Skips, batch.Skips)
	}
	if st.Records != len(batch.Records) || st.Served != len(servedObservations(batch)) {
		t.Errorf("stream saw %d records / %d served, batch %d / %d",
			st.Records, st.Served, len(batch.Records), len(servedObservations(batch)))
	}
}

// feed folds a slice of rows into consumers in a local loop: the batch
// side of a stream-vs-batch comparison.
func feed(t *testing.T, obs []core.Observation, consumers ...core.ObservationConsumer) {
	t.Helper()
	for _, o := range obs {
		for _, c := range consumers {
			if err := c.Add(o); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertMatches compares a streamed result with the batch analyzer's,
// bit for bit, including error parity.
func assertMatches[T any](t *testing.T, name string, finalize, batch func() (T, error)) {
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
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: streamed analysis diverges from batch", name)
	}
}

// TestStreamObservationsConsumerOrder: every served row — and only
// served rows — reaches the consumers in their listed order, in the
// engine's stream order.
func TestStreamObservationsConsumerOrder(t *testing.T) {
	want, err := runCampaign(context.Background(), goldenEnv(t, 4).CampaignConfig(40, true))
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	var rows []core.Observation
	first := func(o core.Observation) error {
		if o.ChosenIdx < 0 {
			t.Errorf("row without a chosen satellite delivered")
		}
		calls = append(calls, "first")
		rows = append(rows, o.Clone())
		return nil
	}
	second := func(core.Observation) error {
		calls = append(calls, "second")
		return nil
	}
	if _, err := goldenEnv(t, 4).StreamObservations(40, first, second); err != nil {
		t.Fatal(err)
	}
	obs := servedObservations(want)
	if len(obs) == 0 {
		t.Fatal("campaign produced no served observations; pick a different seed")
	}
	if !reflect.DeepEqual(rows, obs) {
		t.Errorf("consumer saw %d rows, want the %d served rows in stream order", len(rows), len(obs))
	}
	for i, c := range calls {
		if w := []string{"first", "second"}[i%2]; c != w {
			t.Fatalf("consumer call %d = %s, want %s (calls %v)", i, c, w, calls)
		}
	}
	if len(calls) != 2*len(obs) {
		t.Errorf("%d consumer calls, want %d", len(calls), 2*len(obs))
	}
}

// TestStreamObservationsConsumerErrorAborts: the first consumer error
// aborts the campaign — later consumers never see that row, no further
// row is delivered, and the error comes back verbatim with nil stats.
func TestStreamObservationsConsumerErrorAborts(t *testing.T) {
	boom := errors.New("consumer full")
	var calls []string
	rows := 0
	first := func(o core.Observation) error {
		calls = append(calls, "first")
		if rows++; rows == 5 {
			return boom
		}
		return nil
	}
	second := func(core.Observation) error {
		calls = append(calls, "second")
		return nil
	}
	st, err := goldenEnv(t, 4).StreamObservations(40, first, second)
	if !errors.Is(err, boom) || st != nil {
		t.Fatalf("StreamObservations = %v, %v; want nil stats and the consumer's error", st, err)
	}
	want := []string{"first", "second", "first", "second", "first", "second", "first", "second", "first"}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("consumer calls %v, want %v", calls, want)
	}
}

// TestStreamObservationsFeedsAccumulator: an accumulator's Add method
// value is a StreamObservations consumer as it stands, and what it
// folds equals the same accumulator fed the batch campaign's rows.
func TestStreamObservationsFeedsAccumulator(t *testing.T) {
	batch, err := runCampaign(context.Background(), goldenEnv(t, 1).CampaignConfig(40, true))
	if err != nil {
		t.Fatal(err)
	}
	acc := core.NewAOEAccumulator(5)
	if _, err := goldenEnv(t, 1).StreamObservations(40, acc.Add); err != nil {
		t.Fatal(err)
	}
	want := core.NewAOEAccumulator(5)
	feed(t, servedObservations(batch), want)
	assertMatches(t, "fed AOE", acc.Finalize, want.Finalize)
}

// campaignRun is a campaign's records, each kept past its emit call,
// and the engine's stats: the batch side of a stream-vs-batch
// comparison.
type campaignRun struct {
	Records []core.SlotRecord
	*core.CampaignStats
}

// runCampaign runs cfg through core.RunCampaignStream and keeps every
// record.
func runCampaign(ctx context.Context, cfg core.CampaignConfig) (*campaignRun, error) {
	res := &campaignRun{}
	st, err := core.RunCampaignStream(ctx, cfg, func(rec core.SlotRecord) error {
		res.Records = append(res.Records, keepRecord(rec))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.CampaignStats = st
	return res, nil
}

// keepRecord returns a copy of rec that owns its Available array.
func keepRecord(rec core.SlotRecord) core.SlotRecord {
	rec.Observation = rec.Observation.Clone()
	return rec
}

// servedObservations extracts the observations of the records with a
// valid chosen satellite: the §5/§6 inputs of a batch run.
func servedObservations(res *campaignRun) []core.Observation {
	var out []core.Observation
	for _, rec := range res.Records {
		if rec.ChosenIdx >= 0 {
			out = append(out, rec.Observation)
		}
	}
	return out
}
