// Package traceio persists and reloads the reproduction's data
// artifacts — slot observations and full campaign records — so
// campaigns can be captured once and re-analyzed offline, mirroring
// the paper's released model-and-data bundle.
//
// Every codec is record-at-a-time: each encoder/decoder holds O(1)
// state, so a multi-million-slot campaign can be persisted while it
// runs and replayed without ever materializing the trace. Both row
// types are JSON Lines (each slot carries a nested available-satellite
// list).
package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// ErrTruncatedTail reports a JSONL stream whose final line is
// incomplete — the signature a crash mid-append leaves behind. Strict
// decoders wrap it in their error; tolerant decoders (see
// TolerateTruncatedTail) swallow it, end the stream cleanly at the
// last complete record, and report the resumable append point through
// Offset.
var ErrTruncatedTail = errors.New("traceio: truncated journal tail")

// syncer is the optional durability hook of an encoder's destination
// (*os.File qualifies).
type syncer interface{ Sync() error }

// flushSync drains bw and, when the destination can, forces it to
// stable storage — the "acked means durable" barrier for journals.
func flushSync(bw *bufio.Writer, w io.Writer) error {
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("traceio: flush: %w", err)
	}
	if s, ok := w.(syncer); ok {
		if err := s.Sync(); err != nil {
			return fmt.Errorf("traceio: sync: %w", err)
		}
	}
	return nil
}

// jsonlReader hands out complete JSONL lines with offset tracking and
// the strict/tolerant truncated-tail policy shared by both decoders.
// Errors are sticky: after any failure the stream position is
// untrustworthy, so every later next repeats the error.
type jsonlReader struct {
	br       *bufio.Reader
	off      int64 // end of the last fully consumed line
	tolerant bool
	err      error
}

func newJSONLReader(r io.Reader) *jsonlReader {
	return &jsonlReader{br: bufio.NewReader(r)}
}

// next returns the next non-blank complete line including its
// terminating newline; io.EOF ends the stream. A final line without a
// newline is a truncated tail: tolerant mode ends the stream cleanly
// there (the line is not returned and off stays at the last complete
// line), strict mode fails with ErrTruncatedTail.
func (r *jsonlReader) next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	for {
		line, err := r.br.ReadBytes('\n')
		switch {
		case err == nil:
			r.off += int64(len(line))
			if len(bytes.TrimSpace(line)) == 0 {
				continue // blank line: nothing to decode
			}
			return line, nil
		case err == io.EOF && len(line) == 0:
			r.err = io.EOF
			return nil, io.EOF
		case err == io.EOF:
			// Partial final line: a crash mid-append cut the stream here.
			if r.tolerant {
				r.err = io.EOF
				return nil, io.EOF
			}
			r.err = fmt.Errorf("%w: %d bytes past offset %d", ErrTruncatedTail, len(line), r.off)
			return nil, r.err
		default:
			r.err = fmt.Errorf("traceio: read line: %w", err)
			return nil, r.err
		}
	}
}

// fail makes a decode error sticky: the decoder is unusable after.
func (r *jsonlReader) fail(err error) error {
	r.err = err
	return err
}

// row is what the JSON Lines codecs carry: a slot's observation (the
// -save-obs/-load-obs format) or a full campaign record (observation
// plus ground truth, identification answer, margin and skip reason;
// the coordinator's shard journals and merged stream).
type row interface {
	core.Observation | core.SlotRecord
}

// rowName names T in errors: "observation" or "record".
func rowName[T row]() string {
	var v T
	if _, ok := any(v).(core.Observation); ok {
		return "observation"
	}
	return "record"
}

// Encoder streams rows as JSON Lines, one per Encode call. Call Flush
// when done; output before a Flush may sit in the internal buffer.
// Sync and Close also force durability on destinations that support
// it — the coordinator's shard journals ack through Sync.
type Encoder[T row] struct {
	w   io.Writer
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewEncoder wraps w.
func NewEncoder[T row](w io.Writer) *Encoder[T] {
	bw := bufio.NewWriter(w)
	return &Encoder[T]{w: w, bw: bw, enc: json.NewEncoder(bw)}
}

// Encode appends one line.
func (e *Encoder[T]) Encode(v *T) error {
	if err := e.enc.Encode(v); err != nil {
		return fmt.Errorf("traceio: write %s %d: %w", rowName[T](), e.n, err)
	}
	e.n++
	return nil
}

// Flush drains the buffer to the underlying writer.
func (e *Encoder[T]) Flush() error { return e.bw.Flush() }

// Sync flushes and forces the destination to stable storage when it
// supports Sync (an *os.File journal); the durability barrier behind
// an acknowledgment.
func (e *Encoder[T]) Sync() error { return flushSync(e.bw, e.w) }

// Close finishes the stream: flush plus sync where supported. The
// encoder must not be used afterwards.
func (e *Encoder[T]) Close() error { return e.Sync() }

// Decoder streams rows back from JSON Lines, validating each as it
// decodes.
type Decoder[T row] struct {
	r *jsonlReader
	n int
}

// NewDecoder wraps r.
func NewDecoder[T row](r io.Reader) *Decoder[T] {
	return &Decoder[T]{r: newJSONLReader(r)}
}

// TolerateTruncatedTail switches the decoder to crash-replay mode: a
// truncated final line ends the stream cleanly instead of failing.
func (d *Decoder[T]) TolerateTruncatedTail() { d.r.tolerant = true }

// Offset returns the byte offset just past the last complete line
// consumed — the resumable append point of a truncated journal.
func (d *Decoder[T]) Offset() int64 { return d.r.off }

// Next returns the next row; io.EOF ends a well-formed stream.
// Truncated or malformed input returns a decorated error — never a
// panic — and the decoder is not usable afterwards (in tolerant mode a
// truncated tail counts as a well-formed end).
func (d *Decoder[T]) Next() (T, error) {
	var v T
	line, err := d.r.next()
	if err != nil {
		if err == io.EOF {
			return v, io.EOF
		}
		return v, fmt.Errorf("traceio: read %s %d: %w", rowName[T](), d.n+1, err)
	}
	if err := json.Unmarshal(line, &v); err != nil {
		return v, d.r.fail(fmt.Errorf("traceio: read %s %d: %w", rowName[T](), d.n+1, err))
	}
	d.n++
	o := observationOf(&v)
	if o.ChosenIdx >= len(o.Available) {
		return v, d.r.fail(fmt.Errorf("traceio: %s %d: chosen index %d out of range (%d available)",
			rowName[T](), d.n, o.ChosenIdx, len(o.Available)))
	}
	return v, nil
}

// observationOf returns the observation a row carries.
func observationOf[T row](v *T) *core.Observation {
	switch v := any(v).(type) {
	case *core.Observation:
		return v
	case *core.SlotRecord:
		return &v.Observation
	}
	panic("traceio: unreachable row type")
}
