package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// RejectedCandidate is one satellite the scheduler-observation
// pipeline saw in the available set but did not pick, with the public
// observables the §5 analyses audit: angle of elevation, azimuth, age,
// and sunlit state.
type RejectedCandidate struct {
	SatID      int     `json:"sat_id"`
	AOEDeg     float64 `json:"aoe_deg"`
	AzimuthDeg float64 `json:"azimuth_deg"`
	AgeYears   float64 `json:"age_years"`
	Sunlit     bool    `json:"sunlit"`
}

// Decision is one (slot, terminal) allocation decision as observed by
// the campaign: the chosen satellite (0 when none), the top rejected
// candidates ranked by elevation — the scheduler's dominant preference,
// so these are the most surprising non-picks — and the skip reason
// when the record carried one. Dumpable as JSONL for offline §5-style
// audits of scheduler-preference anomalies.
type Decision struct {
	SlotStart  time.Time           `json:"slot_start"`
	Terminal   string              `json:"terminal"`
	ChosenID   int                 `json:"chosen_id"`
	ChosenAOE  float64             `json:"chosen_aoe_deg,omitempty"`
	SkipReason string              `json:"skip_reason,omitempty"`
	Rejected   []RejectedCandidate `json:"rejected,omitempty"`
}

// DecisionTrace is a bounded ring buffer of the most recent decisions.
// Record never blocks and never grows the buffer; when full, the
// oldest decision is overwritten. Safe for concurrent use; nil-safe
// like every other record path in this package.
type DecisionTrace struct {
	mu       sync.Mutex
	buf      []Decision
	next     int
	full     bool
	recorded uint64
}

// NewDecisionTrace builds a ring holding the last capacity decisions
// (minimum 1).
func NewDecisionTrace(capacity int) *DecisionTrace {
	if capacity < 1 {
		capacity = 1
	}
	return &DecisionTrace{buf: make([]Decision, capacity)}
}

// Record appends one decision, overwriting the oldest when full.
func (t *DecisionTrace) Record(d Decision) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.next] = d
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.recorded++
	t.mu.Unlock()
}

// Len returns how many decisions the ring currently holds.
func (t *DecisionTrace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.full {
		return len(t.buf)
	}
	return t.next
}

// Recorded returns the total number of decisions ever recorded,
// including those the ring has since overwritten.
func (t *DecisionTrace) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recorded
}

// Snapshot copies the ring's contents oldest-first.
func (t *DecisionTrace) Snapshot() []Decision {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Decision
	if t.full {
		out = make([]Decision, 0, len(t.buf))
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append([]Decision(nil), t.buf[:t.next]...)
	}
	return out
}

// WriteJSONL dumps the ring oldest-first as JSON Lines, one Decision
// per line.
func (t *DecisionTrace) WriteJSONL(w io.Writer) error {
	enc := NewDecisionEncoder(w)
	for _, d := range t.Snapshot() {
		if err := enc.Encode(&d); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// DecisionEncoder streams decisions to w as JSON Lines, one decision
// per line — the traceio-style record-at-a-time codec, so arbitrarily
// long audit dumps never materialize.
type DecisionEncoder struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewDecisionEncoder wraps w.
func NewDecisionEncoder(w io.Writer) *DecisionEncoder {
	bw := bufio.NewWriter(w)
	return &DecisionEncoder{bw: bw, enc: json.NewEncoder(bw)}
}

// Encode writes one decision as one line.
func (e *DecisionEncoder) Encode(d *Decision) error {
	if err := e.enc.Encode(d); err != nil {
		return fmt.Errorf("telemetry: encode decision: %w", err)
	}
	return nil
}

// Flush lands buffered output.
func (e *DecisionEncoder) Flush() error { return e.bw.Flush() }
