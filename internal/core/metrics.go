package core

import (
	"sort"
	"time"

	"repro/internal/dtw"
	"repro/internal/telemetry"
)

// CampaignMetrics is the campaign engine's telemetry bundle. All
// handles are resolved once at construction, the observation points sit
// on the engine goroutine (slot preparation and emission), and a nil
// bundle — the default — disables everything at the cost of one branch
// per call site, so the uninstrumented engine stays at Nop speed.
type CampaignMetrics struct {
	slots       *telemetry.Counter
	records     *telemetry.Counter
	served      *telemetry.Counter
	skips       *telemetry.CounterVec
	slotsPerSec *telemetry.FloatGauge
	matcher     *dtw.Metrics

	// Trace, when non-nil, records one Decision per emitted record —
	// the chosen satellite plus the top rejected candidates — into a
	// bounded ring for §5-style offline audits. Recording happens on the
	// engine goroutine in deterministic (slot, terminal) order.
	Trace *telemetry.DecisionTrace
}

// traceRejects bounds the rejected candidates kept per decision.
const traceRejects = 3

// NewCampaignMetrics registers the campaign metric families. Returns
// nil on a nil registry; every method is safe on a nil bundle.
func NewCampaignMetrics(reg *telemetry.Registry) *CampaignMetrics {
	if reg == nil {
		return nil
	}
	return &CampaignMetrics{
		slots:       reg.Counter("campaign_slots_total", "slots dispatched by the campaign engine"),
		records:     reg.Counter("campaign_records_total", "slot x terminal records emitted"),
		served:      reg.Counter("campaign_served_total", "emitted records with a valid chosen satellite"),
		skips:       reg.CounterVec("campaign_skips_total", "emitted records skipped, by reason", "reason"),
		slotsPerSec: reg.FloatGauge("campaign_slots_per_second", "slot throughput of the most recent campaign"),
		matcher:     dtw.NewMetrics(reg),
	}
}

// slotDispatched marks one slot handed to the worker pool.
func (m *CampaignMetrics) slotDispatched() {
	if m == nil {
		return
	}
	m.slots.Inc()
}

// observeRecord folds one emitted record in. Called on the engine
// goroutine, in emission order — the same contract as
// CampaignStats.observe.
func (m *CampaignMetrics) observeRecord(rec *SlotRecord) {
	if m == nil {
		return
	}
	m.records.Inc()
	if rec.ChosenIdx >= 0 {
		m.served.Inc()
	}
	if rec.SkipReason != "" {
		m.skips.With(rec.SkipReason).Inc()
	}
	if m.Trace != nil {
		m.Trace.Record(decision(rec))
	}
}

// decision projects a record into the trace schema: the chosen
// satellite's observables plus the top rejected candidates by
// elevation — the scheduler's dominant preference, so these are the
// most informative non-picks.
func decision(rec *SlotRecord) telemetry.Decision {
	d := telemetry.Decision{
		SlotStart:  rec.SlotStart,
		Terminal:   rec.Terminal,
		SkipReason: rec.SkipReason,
	}
	if rec.ChosenIdx >= 0 {
		c := rec.Available[rec.ChosenIdx]
		d.ChosenID = c.ID
		d.ChosenAOE = c.ElevationDeg
	}
	rejected := make([]telemetry.RejectedCandidate, 0, len(rec.Available))
	for i, s := range rec.Available {
		if i == rec.ChosenIdx {
			continue
		}
		rejected = append(rejected, telemetry.RejectedCandidate{
			SatID:      s.ID,
			AOEDeg:     s.ElevationDeg,
			AzimuthDeg: s.AzimuthDeg,
			AgeYears:   s.AgeYears,
			Sunlit:     s.Sunlit,
		})
	}
	sort.Slice(rejected, func(i, j int) bool {
		if rejected[i].AOEDeg != rejected[j].AOEDeg {
			return rejected[i].AOEDeg > rejected[j].AOEDeg
		}
		return rejected[i].SatID < rejected[j].SatID
	})
	if len(rejected) > traceRejects {
		rejected = rejected[:traceRejects]
	}
	d.Rejected = rejected
	return d
}

// flushMatcher folds one worker's matcher counters in when the
// campaign ends.
func (m *CampaignMetrics) flushMatcher(s dtw.MatcherStats) {
	if m == nil {
		return
	}
	m.matcher.AddStats(s)
}

// campaignDone publishes the end-to-end throughput of a completed run.
func (m *CampaignMetrics) campaignDone(slots int, elapsed time.Duration) {
	if m == nil || elapsed <= 0 {
		return
	}
	m.slotsPerSec.Set(float64(slots) / elapsed.Seconds())
}
