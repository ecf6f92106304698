package scheduler

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestSchedulerMetrics checks the allocation counters against the
// controller's own outputs over a few slots.
func TestSchedulerMetrics(t *testing.T) {
	cons := testConstellation(t)
	reg := telemetry.NewRegistry()
	g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	start := cons.Epoch.Add(time.Hour)
	served, unserved, decisions := 0, 0, 0
	for slot := 0; slot < 5; slot++ {
		for _, a := range g.Allocate(start.Add(time.Duration(slot) * Period)) {
			decisions++
			if a.SatID != 0 {
				served++
			} else {
				unserved++
			}
		}
	}
	s := reg.Snapshot()
	if got := s.Counters["scheduler_allocations_total"]; got != int64(served) {
		t.Errorf("allocations = %d, want %d", got, served)
	}
	if got := s.Counters["scheduler_unserved_total"]; got != int64(unserved) {
		t.Errorf("unserved = %d, want %d", got, unserved)
	}
	if h := s.Histograms["scheduler_candidates"]; h.Count != uint64(decisions) {
		t.Errorf("candidates histogram count = %d, want %d", h.Count, decisions)
	}
}

// TestSchedulerMetricsNil pins the disabled path: no registry, no
// metrics, no panic.
func TestSchedulerMetricsNil(t *testing.T) {
	if NewMetrics(telemetry.Nop) != nil {
		t.Fatal("NewMetrics(Nop) must return nil")
	}
	cons := testConstellation(t)
	g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g.Allocate(cons.Epoch.Add(time.Hour))
}
