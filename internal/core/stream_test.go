package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/constellation"
)

// TestStreamMatchesBatch is the streaming engine's core contract: the
// emitted sequence equals a one-worker run's records, kept as a batch,
// exactly — same order, same content, same counters — at several
// worker counts, in both oracle and measured mode, and the stats
// agree with the records: their count, the served ones and the skip
// reasons.
func TestStreamMatchesBatch(t *testing.T) {
	setupFixture(t)
	for _, oracle := range []bool{true, false} {
		batch, err := runCampaign(context.Background(), campaignCfg(t, 41, 1, oracle))
		if err != nil {
			t.Fatal(err)
		}
		skips := map[string]int{}
		for _, rec := range batch.Records {
			if rec.SkipReason != "" {
				skips[rec.SkipReason]++
			}
		}
		if len(skips) == 0 {
			skips = nil
		}
		for _, workers := range []int{1, 2, 4} {
			var streamed []SlotRecord
			stats, err := RunCampaignStream(context.Background(), campaignCfg(t, 41, workers, oracle),
				func(rec SlotRecord) error {
					streamed = append(streamed, keep(rec))
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(batch.Records) {
				t.Fatalf("oracle=%v workers=%d: %d streamed != %d batch",
					oracle, workers, len(streamed), len(batch.Records))
			}
			for i := range streamed {
				if !reflect.DeepEqual(streamed[i], batch.Records[i]) {
					t.Fatalf("oracle=%v workers=%d: record %d differs:\nstream: %+v\nbatch:  %+v",
						oracle, workers, i, streamed[i], batch.Records[i])
				}
			}
			if stats.Attempted != batch.Attempted || stats.Correct != batch.Correct || stats.Failed != batch.Failed {
				t.Errorf("oracle=%v workers=%d: counters (%d,%d,%d) != batch (%d,%d,%d)",
					oracle, workers, stats.Attempted, stats.Correct, stats.Failed,
					batch.Attempted, batch.Correct, batch.Failed)
			}
			if stats.Records != len(batch.Records) {
				t.Errorf("stats.Records = %d, want %d", stats.Records, len(batch.Records))
			}
			if stats.Served != len(servedObservations(batch)) {
				t.Errorf("stats.Served = %d, want %d", stats.Served, len(servedObservations(batch)))
			}
			if !reflect.DeepEqual(stats.Skips, skips) {
				t.Errorf("oracle=%v workers=%d: skips %v, the records' %v", oracle, workers, stats.Skips, skips)
			}
			if stats.Dropped() != stats.Records-stats.Served {
				t.Errorf("Dropped() inconsistent")
			}
		}
	}
}

// TestShardedCampaignMatchesSerial is the distributed engine's
// determinism contract: partition the fleet into contiguous terminal
// shards, run each shard as its own campaign (fresh same-seed
// scheduler, as a worker process would), merge slot by slot in shard
// order — and the merged stream must equal the unsharded one-worker
// run record for record, with the identification tallies summing
// across shards, at one and four workers per shard.
func TestShardedCampaignMatchesSerial(t *testing.T) {
	setupFixture(t)
	for _, tc := range []struct {
		oracle  bool
		workers int
	}{{true, 1}, {true, 4}, {false, 1}, {false, 4}} {
		oracle, workers := tc.oracle, tc.workers
		full, err := runCampaign(context.Background(), campaignCfg(t, 77, 1, oracle))
		if err != nil {
			t.Fatal(err)
		}
		nTerms := len(full.Records) / 24 // 24 slots per campaignCfg
		for _, shards := range []int{2, 3} {
			if shards > nTerms {
				continue
			}
			perShard := make([][]SlotRecord, shards)
			var attempted, correct, failed int
			for s := 0; s < shards; s++ {
				lo := s * nTerms / shards
				hi := (s + 1) * nTerms / shards
				cfg := campaignCfg(t, 77, workers, oracle)
				cfg.Shard = ShardRange{Lo: lo, Hi: hi}
				stats, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
					perShard[s] = append(perShard[s], keep(rec))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if stats.Terminals != hi-lo {
					t.Errorf("shard %d: stats.Terminals = %d, want %d", s, stats.Terminals, hi-lo)
				}
				if len(perShard[s]) != (hi-lo)*cfg.Slots {
					t.Fatalf("shard %d emitted %d records, want %d", s, len(perShard[s]), (hi-lo)*cfg.Slots)
				}
				attempted += stats.Attempted
				correct += stats.Correct
				failed += stats.Failed
			}
			// Merge: slot by slot, shards in order — the coordinator's rule.
			var merged []SlotRecord
			for slot := 0; slot < 24; slot++ {
				for s := 0; s < shards; s++ {
					width := len(perShard[s]) / 24
					merged = append(merged, perShard[s][slot*width:(slot+1)*width]...)
				}
			}
			if len(merged) != len(full.Records) {
				t.Fatalf("oracle=%v workers=%d shards=%d: merged %d records, want %d",
					oracle, workers, shards, len(merged), len(full.Records))
			}
			for i := range merged {
				if !reflect.DeepEqual(merged[i], full.Records[i]) {
					t.Fatalf("oracle=%v workers=%d shards=%d: merged record %d differs:\nshard: %+v\nfull:  %+v",
						oracle, workers, shards, i, merged[i], full.Records[i])
				}
			}
			if attempted != full.Attempted || correct != full.Correct || failed != full.Failed {
				t.Errorf("oracle=%v workers=%d shards=%d: summed counters (%d,%d,%d) != full (%d,%d,%d)",
					oracle, workers, shards, attempted, correct, failed, full.Attempted, full.Correct, full.Failed)
			}
		}
	}
}

// TestEmitFromSlotResume is the journal-replay contract: a run resumed
// at slot k re-walks the campaign state from slot 0 but emits exactly
// the records the original one-worker run emitted from slot k on, with
// complete whole-campaign identification tallies, at one and four
// workers.
func TestEmitFromSlotResume(t *testing.T) {
	setupFixture(t)
	for _, tc := range []struct {
		oracle  bool
		workers int
	}{{true, 1}, {true, 4}, {false, 1}, {false, 4}} {
		oracle, workers := tc.oracle, tc.workers
		full, err := runCampaign(context.Background(), campaignCfg(t, 78, 1, oracle))
		if err != nil {
			t.Fatal(err)
		}
		nTerms := len(full.Records) / 24
		for _, resume := range []int{1, 13, 24} {
			cfg := campaignCfg(t, 78, workers, oracle)
			cfg.EmitFromSlot = resume
			var got []SlotRecord
			stats, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
				got = append(got, keep(rec))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := full.Records[resume*nTerms:]
			if len(got) != len(want) {
				t.Fatalf("oracle=%v workers=%d resume=%d: emitted %d records, want %d",
					oracle, workers, resume, len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("oracle=%v workers=%d resume=%d: record %d differs", oracle, workers, resume, i)
				}
			}
			if stats.Records != len(want) {
				t.Errorf("oracle=%v workers=%d resume=%d: stats.Records = %d, want %d",
					oracle, workers, resume, stats.Records, len(want))
			}
			// Tallies cover the whole campaign, not just the emitted tail.
			if stats.Attempted != full.Attempted || stats.Correct != full.Correct || stats.Failed != full.Failed {
				t.Errorf("oracle=%v workers=%d resume=%d: counters (%d,%d,%d) != full (%d,%d,%d)",
					oracle, workers, resume, stats.Attempted, stats.Correct, stats.Failed,
					full.Attempted, full.Correct, full.Failed)
			}
		}
		// Sharded resume: the reassigned-worker path replays one shard
		// from a mid-campaign slot.
		if nTerms >= 2 {
			cfg := campaignCfg(t, 78, workers, oracle)
			cfg.Shard = ShardRange{Lo: 1, Hi: nTerms}
			cfg.EmitFromSlot = 7
			var got []SlotRecord
			if _, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
				got = append(got, keep(rec))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var want []SlotRecord
			for slot := 7; slot < 24; slot++ {
				want = append(want, full.Records[slot*nTerms+1:(slot+1)*nTerms]...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("oracle=%v workers=%d: sharded resume diverged (%d vs %d records)",
					oracle, workers, len(got), len(want))
			}
		}
	}
}

// TestShardValidation rejects out-of-range shards and resume slots.
func TestShardValidation(t *testing.T) {
	setupFixture(t)
	nTerms := len(campaignCfg(t, 1, 1, true).Scheduler.Terminals())
	bad := []CampaignConfig{}
	for _, s := range []ShardRange{{Lo: -1, Hi: 1}, {Lo: 2, Hi: 1}, {Lo: 0, Hi: nTerms + 1}} {
		cfg := campaignCfg(t, 1, 1, true)
		cfg.Shard = s
		bad = append(bad, cfg)
	}
	for _, e := range []int{-1, 25} {
		cfg := campaignCfg(t, 1, 1, true)
		cfg.EmitFromSlot = e
		bad = append(bad, cfg)
	}
	for i, cfg := range bad {
		if _, err := RunCampaignStream(context.Background(), cfg, func(SlotRecord) error { return nil }); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestStreamEmitErrorAborts proves an emit error stops the campaign —
// at one and four workers — and surfaces verbatim.
func TestStreamEmitErrorAborts(t *testing.T) {
	setupFixture(t)
	sentinel := fmt.Errorf("sink full")
	for _, workers := range []int{1, 4} {
		n := 0
		stats, err := RunCampaignStream(context.Background(), campaignCfg(t, 43, workers, true),
			func(SlotRecord) error {
				n++
				if n == 10 {
					return sentinel
				}
				return nil
			})
		if err != sentinel {
			t.Errorf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if stats != nil {
			t.Errorf("workers=%d: aborted stream returned stats", workers)
		}
		if n != 10 {
			t.Errorf("workers=%d: emit called %d times after error, want 10", workers, n)
		}
	}
}

// TestStreamCancellation mirrors the batch cancellation contract: a
// pre-canceled context returns promptly with the context's error.
func TestStreamCancellation(t *testing.T) {
	setupFixture(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		stats, err := RunCampaignStream(ctx, campaignCfg(t, 44, workers, true), func(SlotRecord) error { return nil })
		if err != context.Canceled {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if stats != nil {
			t.Errorf("workers=%d: canceled stream returned stats", workers)
		}
	}
}

// TestCampaignLeavesNothingPinned: the engine holds the next slot's
// snapshot while the pool runs the current one, so every exit path — a
// clean run, an emit error, a cancel from inside emit — must hand every
// snapshot back to the caller's cache.
func TestCampaignLeavesNothingPinned(t *testing.T) {
	setupFixture(t)
	sentinel := fmt.Errorf("sink full")
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name    string
			wantErr error
			emit    func(n int, cancel context.CancelFunc) error
		}{
			{"clean", nil, func(int, context.CancelFunc) error { return nil }},
			{"emit error", sentinel, func(n int, _ context.CancelFunc) error {
				if n == 10 {
					return sentinel
				}
				return nil
			}},
			{"cancel in emit", context.Canceled, func(n int, cancel context.CancelFunc) error {
				if n == 10 {
					cancel()
				}
				return nil
			}},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			cache := constellation.NewSnapshotCache(0, nil)
			cfg := campaignCfg(t, 46, workers, true)
			cfg.Snapshots = cache
			n := 0
			_, err := RunCampaignStream(ctx, cfg, func(SlotRecord) error {
				n++
				return tc.emit(n, cancel)
			})
			cancel()
			if err != tc.wantErr {
				t.Errorf("workers=%d %s: err = %v, want %v", workers, tc.name, err, tc.wantErr)
			}
			if p := cache.Pinned(); p != 0 {
				t.Errorf("workers=%d %s: %d snapshots still pinned", workers, tc.name, p)
			}
		}
	}
}
