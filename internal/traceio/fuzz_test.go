package traceio

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzRecordDecoder hammers the streaming SlotRecord decoder with
// arbitrary bytes: it must never panic, must terminate, and whatever
// it does decode must survive a re-encode/re-decode round trip
// unchanged (the codec is its own inverse on its accepted language).
func FuzzRecordDecoder(f *testing.F) {
	f.Add([]byte(`{"Terminal":"Iowa","Available":[{"ID":1,"ElevationDeg":40}],"ChosenIdx":0,"TrueID":1}` + "\n"))
	f.Add([]byte(`{"Terminal":"x","Available":null,"ChosenIdx":-1}` + "\n" + `{"Terminal":"y"`))
	f.Add([]byte("{broken"))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder[core.SlotRecord](bytes.NewReader(data))
		const maxRecords = 1 << 12 // arbitrary input must not loop forever
		for i := 0; i < maxRecords; i++ {
			rec, err := dec.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				// Any later Next must keep failing, not panic.
				if _, err2 := dec.Next(); err2 == nil {
					t.Error("decoder recovered after an error")
				}
				return
			}
			if rec.ChosenIdx >= len(rec.Available) {
				t.Fatalf("validation let chosen index %d through (%d available)", rec.ChosenIdx, len(rec.Available))
			}
			var buf bytes.Buffer
			enc := NewEncoder[core.SlotRecord](&buf)
			if err := enc.Encode(&rec); err != nil {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
			if err := enc.Flush(); err != nil {
				t.Fatal(err)
			}
			again, err := NewDecoder[core.SlotRecord](&buf).Next()
			if err != nil {
				t.Fatalf("re-decode of accepted record failed: %v", err)
			}
			if !reflect.DeepEqual(rec, again) {
				t.Fatal("record changed across re-encode round trip")
			}
		}
	})
}

// FuzzJournalReplay drives the crash-replay contract with arbitrary
// journal bytes: tolerant replay must never panic, must report an
// offset that sits inside the input on a complete-line boundary, and
// re-reading the prefix up to that offset strictly must yield exactly
// the same records with no truncation — the invariant the coordinator
// relies on when it trims and resumes a dead worker's journal.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"Terminal":"Iowa","Available":[{"ID":1,"ElevationDeg":40}],"ChosenIdx":0,"TrueID":1}` + "\n"))
	f.Add([]byte(`{"Terminal":"x","Available":null,"ChosenIdx":-1}` + "\n" + `{"Terminal":"y"`))
	f.Add([]byte(`{"Terminal":"x","Available":null,"ChosenIdx":-1,"TrueID":3}`)) // valid record, no newline
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{broken"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder[core.SlotRecord](bytes.NewReader(data))
		dec.TolerateTruncatedTail()
		var replayed []core.SlotRecord
		const maxRecords = 1 << 12
		clean := false
		for i := 0; i < maxRecords; i++ {
			rec, err := dec.Next()
			if err == io.EOF {
				clean = true
				break
			}
			if err != nil {
				break // malformed mid-stream: still must not panic
			}
			replayed = append(replayed, rec)
		}
		off := dec.Offset()
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside input of %d bytes", off, len(data))
		}
		if off > 0 && data[off-1] != '\n' {
			t.Fatalf("offset %d not on a line boundary", off)
		}
		if !clean {
			return // hard decode error: offset still bounded, nothing to replay
		}
		if len(data) > 0 && data[len(data)-1] == '\n' && off != int64(len(data)) {
			t.Fatalf("offset %d short of a complete input of %d bytes", off, len(data))
		}
		// Strict re-read of the trimmed journal: identical records, no
		// truncation, same offset.
		again := NewDecoder[core.SlotRecord](bytes.NewReader(data[:off]))
		var second []core.SlotRecord
		for {
			rec, err := again.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("strict replay of trimmed journal failed: %v", err)
			}
			second = append(second, rec)
		}
		if !reflect.DeepEqual(replayed, second) {
			t.Fatalf("trimmed journal replayed %d records, tolerant pass saw %d", len(second), len(replayed))
		}
		if again.Offset() != off {
			t.Fatalf("trimmed journal offset %d, want %d", again.Offset(), off)
		}
	})
}

// FuzzObservationDecoder is the same property for the observation
// codec, which faces user-supplied -load-obs files in cmd/repro.
func FuzzObservationDecoder(f *testing.F) {
	f.Add([]byte(`{"Terminal":"Iowa","Available":[{"ID":1}],"ChosenIdx":0}` + "\n"))
	f.Add([]byte(`{"ChosenIdx":7,"Available":[]}`))
	f.Add([]byte("]["))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder[core.Observation](bytes.NewReader(data))
		const maxRecords = 1 << 12
		for i := 0; i < maxRecords; i++ {
			o, err := dec.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if o.ChosenIdx >= len(o.Available) {
				t.Fatalf("validation let chosen index %d through (%d available)", o.ChosenIdx, len(o.Available))
			}
		}
	})
}
