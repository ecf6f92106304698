package traceio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// randObservation draws a structurally valid observation from rng —
// the generator behind the property-based batch-vs-streaming checks.
func randObservation(rng *rand.Rand) core.Observation {
	n := rng.Intn(6)
	o := core.Observation{
		Terminal:  []string{"Iowa", "Madrid", "New York", "Seattle"}[rng.Intn(4)],
		SlotStart: time.Date(2023, 3, 1, 0, 0, 12, 0, time.UTC).Add(time.Duration(rng.Intn(1e6)) * 15 * time.Second),
		LocalHour: rng.Intn(24),
		ChosenIdx: -1,
	}
	for i := 0; i < n; i++ {
		o.Available = append(o.Available, core.SatObs{
			ID:           rng.Intn(5000) + 1,
			ElevationDeg: 25 + 65*rng.Float64(),
			AzimuthDeg:   360 * rng.Float64(),
			RangeKm:      500 + 1500*rng.Float64(),
			AgeYears:     4 * rng.Float64(),
			LaunchDate:   time.Date(2019+rng.Intn(4), time.Month(1+rng.Intn(12)), 1, 0, 0, 0, 0, time.UTC),
			Sunlit:       rng.Intn(2) == 0,
		})
	}
	if n > 0 && rng.Intn(4) > 0 {
		o.ChosenIdx = rng.Intn(n)
	}
	return o
}

// TestRecordRoundTrip covers the full-SlotRecord codec: encode ->
// decode recovers every field, including the ground-truth and
// identification ones the observation codec drops.
func TestRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var in []core.SlotRecord
	for i := 0; i < 40; i++ {
		rec := core.SlotRecord{
			Observation:  randObservation(rng),
			TrueID:       rng.Intn(5000),
			IdentifiedID: rng.Intn(5000),
			Margin:       10 * rng.Float64(),
		}
		if rec.ChosenIdx < 0 {
			rec.SkipReason = "no satellite allocated"
		}
		in = append(in, rec)
	}
	var buf bytes.Buffer
	enc := NewEncoder[core.SlotRecord](&buf)
	for i := range in {
		if err := enc.Encode(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder[core.SlotRecord](&buf)
	var out []core.SlotRecord
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("record round trip lost data")
	}
}

// TestStreamDecoderErrors: truncated and garbage input must error
// with a decorated message, never panic, and validation must reject
// out-of-range chosen indices record by record.
func TestStreamDecoderErrors(t *testing.T) {
	cases := []string{
		"{broken",
		`{"Terminal":"x","Available":[{"ID":1}],"ChosenIdx":5}`,
		`{"Terminal":"x","Available":null,"ChosenIdx":0}`,
		"\x00\x01\x02",
		`[1,2,3`,
	}
	for i, c := range cases {
		if _, err := NewDecoder[core.Observation](strings.NewReader(c)).Next(); err == nil || err == io.EOF {
			t.Errorf("observation case %d: err = %v, want decode error", i, err)
		}
		if _, err := NewDecoder[core.SlotRecord](strings.NewReader(c)).Next(); err == nil || err == io.EOF {
			t.Errorf("record case %d: err = %v, want decode error", i, err)
		}
	}
	// A valid record followed by a truncated one: the first decodes,
	// the second errors with its 1-based index.
	input := `{"Terminal":"x","Available":[{"ID":1}],"ChosenIdx":0}` + "\n" + `{"Terminal":`
	dec := NewDecoder[core.Observation](strings.NewReader(input))
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err == nil || !strings.Contains(err.Error(), "observation 2") {
		t.Errorf("truncated tail error = %v, want observation 2 decode error", err)
	}
	recs := NewDecoder[core.SlotRecord](strings.NewReader(input))
	if _, err := recs.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := recs.Next(); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("truncated tail error = %v, want record 2 decode error", err)
	}
}

// encodeRecords renders records the way a journal stores them.
func encodeRecords(t *testing.T, recs []core.SlotRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder[core.SlotRecord](&buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTolerantTailReplay is the crash-replay contract: a journal cut
// mid-append yields every record up to the last complete line, a clean
// io.EOF, the truncation flag, and a resumable offset that appending a
// fresh record to extends the journal seamlessly.
func TestTolerantTailReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := make([]core.SlotRecord, 5)
	for i := range recs {
		recs[i] = core.SlotRecord{Observation: randObservation(rng), TrueID: i + 1}
	}
	whole := encodeRecords(t, recs)

	// Cut inside the final record: everything from just past the 4th
	// line's newline up to (but excluding) the final newline.
	lines := bytes.SplitAfter(whole, []byte("\n"))
	complete := len(whole) - len(lines[4])
	for _, cut := range []int{complete + 1, complete + len(lines[4])/2, len(whole) - 1} {
		dec := NewDecoder[core.SlotRecord](bytes.NewReader(whole[:cut]))
		dec.TolerateTruncatedTail()
		var got []core.SlotRecord
		for {
			rec, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("cut=%d: %v", cut, err)
			}
			got = append(got, rec)
		}
		if len(got) != 4 {
			t.Fatalf("cut=%d: replayed %d records, want 4", cut, len(got))
		}
		if dec.Offset() >= int64(cut) {
			t.Errorf("cut=%d: offset %d did not stop before the partial tail", cut, dec.Offset())
		}
		if dec.Offset() != int64(complete) {
			t.Errorf("cut=%d: offset = %d, want %d", cut, dec.Offset(), complete)
		}
		// Resume: append a fresh record at the offset; the journal must
		// replay strictly to 5 records.
		resumed := append(append([]byte(nil), whole[:dec.Offset()]...), encodeRecords(t, recs[4:])...)
		strict := NewDecoder[core.SlotRecord](bytes.NewReader(resumed))
		n := 0
		for {
			if _, err := strict.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("cut=%d: resumed journal: %v", cut, err)
			}
			n++
		}
		if n != 5 {
			t.Fatalf("cut=%d: resumed journal has %d records, want 5", cut, n)
		}
	}

	// A clean journal in tolerant mode: no truncation, offset = size.
	dec := NewDecoder[core.SlotRecord](bytes.NewReader(whole))
	dec.TolerateTruncatedTail()
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if dec.Offset() != int64(len(whole)) {
		t.Errorf("clean journal: offset=%d (size %d)", dec.Offset(), len(whole))
	}

	// Strict mode must refuse the same truncated input with
	// ErrTruncatedTail.
	strict := NewDecoder[core.SlotRecord](bytes.NewReader(whole[:len(whole)-1]))
	var err error
	for err == nil {
		_, err = strict.Next()
	}
	if !errors.Is(err, ErrTruncatedTail) {
		t.Errorf("strict decode of truncated journal: %v, want ErrTruncatedTail", err)
	}

	// Garbage mid-stream stays a hard error even in tolerant mode.
	bad := append(append([]byte(nil), lines[0]...), []byte("{garbage}\n")...)
	bad = append(bad, lines[1]...)
	tol := NewDecoder[core.SlotRecord](bytes.NewReader(bad))
	tol.TolerateTruncatedTail()
	if _, err := tol.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := tol.Next(); err == nil || err == io.EOF {
		t.Errorf("mid-stream garbage tolerated: %v", err)
	}
}
