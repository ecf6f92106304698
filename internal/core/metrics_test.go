package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// runMetered runs one campaign with a fresh registry + trace and
// returns the resulting snapshot and trace.
func runMetered(t *testing.T, workers int, oracle bool) (telemetry.Snapshot, []telemetry.Decision) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := campaignCfg(t, 47, workers, oracle)
	cfg.Metrics = NewCampaignMetrics(reg)
	cfg.Metrics.Trace = telemetry.NewDecisionTrace(4096)
	if _, err := RunCampaignStream(context.Background(), cfg, func(SlotRecord) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), cfg.Metrics.Trace.Snapshot()
}

// TestCampaignMetricsMatchStats proves the telemetry counters agree
// with the engine's own CampaignStats, and that a worker pool produces
// byte-identical counters and decision traces to one worker —
// instrumentation must not observe scheduling nondeterminism.
func TestCampaignMetricsMatchStats(t *testing.T) {
	setupFixture(t)
	for _, oracle := range []bool{true, false} {
		reg := telemetry.NewRegistry()
		cfg := campaignCfg(t, 47, 1, oracle)
		cfg.Metrics = NewCampaignMetrics(reg)
		cfg.Metrics.Trace = telemetry.NewDecisionTrace(4096)
		stats, err := RunCampaignStream(context.Background(), cfg, func(SlotRecord) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		s := reg.Snapshot()
		if got := s.Counters["campaign_slots_total"]; got != int64(cfg.Slots) {
			t.Errorf("oracle=%v: slots counter = %d, want %d", oracle, got, cfg.Slots)
		}
		if got := s.Counters["campaign_records_total"]; got != int64(stats.Records) {
			t.Errorf("oracle=%v: records counter = %d, want %d", oracle, got, stats.Records)
		}
		if got := s.Counters["campaign_served_total"]; got != int64(stats.Served) {
			t.Errorf("oracle=%v: served counter = %d, want %d", oracle, got, stats.Served)
		}
		for reason, n := range stats.Skips {
			key := `campaign_skips_total{reason="` + reason + `"}`
			if got := s.Counters[key]; got != int64(n) {
				t.Errorf("oracle=%v: %s = %d, want %d", oracle, key, got, n)
			}
		}
		if cfg.Metrics.Trace.Len() != stats.Records {
			t.Errorf("oracle=%v: trace holds %d decisions, want %d", oracle, cfg.Metrics.Trace.Len(), stats.Records)
		}
		if !oracle && s.Counters["dtw_candidates_total"] == 0 {
			t.Error("measured run recorded no matcher candidates")
		}
	}
}

func TestCampaignMetricsParallelMatchesSerial(t *testing.T) {
	setupFixture(t)
	serialSnap, serialTrace := runMetered(t, 1, false)
	for _, workers := range []int{2, 4} {
		snap, trace := runMetered(t, workers, false)
		if !reflect.DeepEqual(snap.Counters, serialSnap.Counters) {
			t.Errorf("workers=%d: counters diverge from serial:\nserial:   %v\nparallel: %v",
				workers, serialSnap.Counters, snap.Counters)
		}
		if !reflect.DeepEqual(trace, serialTrace) {
			t.Errorf("workers=%d: decision trace diverges from serial", workers)
		}
	}
}

// TestDecisionTraceContent checks the trace's projection of a record:
// chosen observables, top rejected candidates by elevation, skip
// reasons, and that the JSONL dump round-trips.
func TestDecisionTraceContent(t *testing.T) {
	setupFixture(t)
	reg := telemetry.NewRegistry()
	cfg := campaignCfg(t, 47, 1, true)
	cfg.Metrics = NewCampaignMetrics(reg)
	cfg.Metrics.Trace = telemetry.NewDecisionTrace(4096)
	var recs []SlotRecord
	if _, err := RunCampaignStream(context.Background(), cfg, func(rec SlotRecord) error {
		recs = append(recs, keep(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	decisions := cfg.Metrics.Trace.Snapshot()
	if len(decisions) != len(recs) {
		t.Fatalf("trace holds %d decisions, want %d", len(decisions), len(recs))
	}
	for i, d := range decisions {
		rec := recs[i]
		if d.Terminal != rec.Terminal || !d.SlotStart.Equal(rec.SlotStart) || d.SkipReason != rec.SkipReason {
			t.Fatalf("decision %d identity mismatch: %+v vs record %+v", i, d, rec)
		}
		if rec.ChosenIdx >= 0 {
			chosen := rec.Available[rec.ChosenIdx]
			if d.ChosenID != chosen.ID || d.ChosenAOE != chosen.ElevationDeg {
				t.Fatalf("decision %d chosen mismatch: %+v vs %+v", i, d, chosen)
			}
			if len(d.Rejected) > 3 {
				t.Fatalf("decision %d keeps %d rejected, want <= 3", i, len(d.Rejected))
			}
			for j := 1; j < len(d.Rejected); j++ {
				if d.Rejected[j].AOEDeg > d.Rejected[j-1].AOEDeg {
					t.Fatalf("decision %d rejected not sorted by elevation: %+v", i, d.Rejected)
				}
			}
			for _, r := range d.Rejected {
				if r.SatID == d.ChosenID {
					t.Fatalf("decision %d lists the chosen satellite as rejected", i)
				}
			}
		} else if d.ChosenID != 0 {
			t.Fatalf("decision %d has ChosenID %d on a skipped record", i, d.ChosenID)
		}
	}
	var buf bytes.Buffer
	if err := cfg.Metrics.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var back []telemetry.Decision
	for dec := json.NewDecoder(&buf); dec.More(); {
		var d telemetry.Decision
		if err := dec.Decode(&d); err != nil {
			t.Fatal(err)
		}
		back = append(back, d)
	}
	if !reflect.DeepEqual(decisions, back) {
		t.Fatal("campaign decision trace does not round-trip through JSONL")
	}
}

// TestCampaignNilMetrics pins the Nop contract at the engine level: a
// nil bundle must not panic anywhere, serial or parallel.
func TestCampaignNilMetrics(t *testing.T) {
	setupFixture(t)
	for _, workers := range []int{1, 2} {
		cfg := campaignCfg(t, 47, workers, true)
		cfg.Metrics = NewCampaignMetrics(telemetry.Nop) // nil
		if cfg.Metrics != nil {
			t.Fatal("NewCampaignMetrics(Nop) must return nil")
		}
		if _, err := RunCampaignStream(context.Background(), cfg, func(SlotRecord) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
}
