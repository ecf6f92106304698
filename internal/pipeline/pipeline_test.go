package pipeline

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// records replays an in-memory record slice in order.
type records []core.SlotRecord

func (s records) Stream(ctx context.Context, emit func(Record) error) error {
	for i := range s {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := emit(s[i]); err != nil {
			return err
		}
	}
	return nil
}

// sourceFunc adapts a function to Source.
type sourceFunc func(ctx context.Context, emit func(Record) error) error

func (f sourceFunc) Stream(ctx context.Context, emit func(Record) error) error { return f(ctx, emit) }

// terminalA keeps records from terminal "A".
func terminalA(rec *Record) bool { return rec.Terminal == "A" }

// fakeRecords fabricates a deterministic mixed stream: two terminals,
// every third record skipped.
func fakeRecords(n int) []core.SlotRecord {
	base := time.Date(2023, 3, 1, 0, 0, 12, 0, time.UTC)
	out := make([]core.SlotRecord, n)
	for i := range out {
		rec := core.SlotRecord{
			Observation: core.Observation{
				Terminal:  []string{"A", "B"}[i%2],
				SlotStart: base.Add(time.Duration(i) * 15 * time.Second),
				LocalHour: i % 24,
				Available: []core.SatObs{{ID: i + 1, ElevationDeg: 40}},
				ChosenIdx: -1,
			},
		}
		if i%3 != 0 {
			rec.ChosenIdx = 0
			rec.IdentifiedID = i + 1
			rec.TrueID = i + 1
		} else {
			rec.SkipReason = "no satellite allocated"
		}
		out[i] = rec
	}
	return out
}

func TestRunOrderAndStages(t *testing.T) {
	recs := fakeRecords(20)
	var want []core.SlotRecord
	for _, r := range recs {
		if r.Terminal == "A" && r.ChosenIdx >= 0 {
			want = append(want, r)
		}
	}
	collect := &Collect{}
	p := &Pipeline{
		Source: records(recs),
		Stages: []Stage{terminalA, ChosenOnly()},
		Sinks:  []Sink{collect},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collect.Records, want) {
		t.Fatalf("staged stream = %d records, want %d in source order", len(collect.Records), len(want))
	}
}

func TestWhereGatesOneSink(t *testing.T) {
	recs := fakeRecords(20)
	all := &Collect{}
	chosen := &CollectObservations{}
	counts := &CountSkips{}
	p := &Pipeline{
		Source: records(recs),
		Sinks:  []Sink{all, Where(ChosenOnly(), chosen), counts},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(all.Records) != len(recs) {
		t.Errorf("ungated sink saw %d records, want %d", len(all.Records), len(recs))
	}
	wantChosen := 0
	for _, r := range recs {
		if r.ChosenIdx >= 0 {
			wantChosen++
		}
	}
	if len(chosen.Obs) != wantChosen {
		t.Errorf("gated sink saw %d records, want %d", len(chosen.Obs), wantChosen)
	}
	if counts.Total != len(recs) || counts.Served != wantChosen {
		t.Errorf("counts = %d/%d, want %d/%d", counts.Served, counts.Total, wantChosen, len(recs))
	}
	if counts.Reasons["no satellite allocated"] != len(recs)-wantChosen {
		t.Errorf("skip histogram = %v", counts.Reasons)
	}
}

// TestRunInline: stages and sinks run inside emit on the source's own
// goroutine, and once a sink has failed no later record reaches any
// sink, even from a source that ignores emit's error. The stream is
// longer than any plausible hand-off buffer, so a source running on a
// goroutine of its own would still be alive when the sinks run.
func TestRunInline(t *testing.T) {
	before := runtime.NumGoroutine()
	sentinel := errors.New("sink failed")
	var seen, after, ignored int
	src := sourceFunc(func(ctx context.Context, emit func(Record) error) error {
		for _, rec := range fakeRecords(200) {
			if err := emit(rec); err != nil {
				if err != sentinel {
					t.Errorf("emit returned %v, want the sink's error", err)
				}
				ignored++
			}
		}
		return nil
	})
	p := &Pipeline{
		Source: src,
		Sinks: []Sink{
			SinkFunc(func(*Record) error {
				if n := runtime.NumGoroutine(); n != before {
					t.Errorf("sink sees %d goroutines, %d before Run", n, before)
				}
				seen++
				if seen == 3 {
					return sentinel
				}
				return nil
			}),
			SinkFunc(func(*Record) error { after++; return nil }),
		},
	}
	if err := p.Run(context.Background()); err != sentinel {
		t.Fatalf("Run = %v, want the sink's error", err)
	}
	if seen != 3 || after != 2 {
		t.Errorf("sinks saw %d and %d records, want 3 and 2", seen, after)
	}
	if ignored != 198 {
		t.Errorf("emit failed %d times, want 198 (the failing record and every later one)", ignored)
	}
}

// flushRecorder tracks whether Flush ran.
type flushRecorder struct{ flushed bool }

func (f *flushRecorder) Consume(rec *Record) error { return nil }
func (f *flushRecorder) Flush() error              { f.flushed = true; return nil }

func TestSinkErrorAbortsWithoutFlush(t *testing.T) {
	sentinel := errors.New("sink exploded")
	n := 0
	failing := SinkFunc(func(rec *Record) error {
		n++
		if n == 5 {
			return sentinel
		}
		return nil
	})
	flushed := &flushRecorder{}
	p := &Pipeline{
		Source: records(fakeRecords(50)),
		Sinks:  []Sink{failing, flushed},
	}
	if err := p.Run(context.Background()); err != sentinel {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if flushed.flushed {
		t.Error("Flush ran after an error")
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	sentinel := errors.New("source died")
	src := sourceFunc(func(ctx context.Context, emit func(Record) error) error {
		for i := 0; i < 3; i++ {
			if err := emit(Record{}); err != nil {
				return err
			}
		}
		return sentinel
	})
	collect := &Collect{}
	p := &Pipeline{Source: src, Sinks: []Sink{collect}}
	if err := p.Run(context.Background()); err != sentinel {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if len(collect.Records) != 3 {
		t.Errorf("records before the failure = %d, want 3", len(collect.Records))
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Pipeline{Source: records(fakeRecords(5)), Sinks: []Sink{&Collect{}}}
	if err := p.Run(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := (&Pipeline{Sinks: []Sink{&Collect{}}}).Run(context.Background()); err == nil {
		t.Error("nil source accepted")
	}
	if err := (&Pipeline{Source: records(nil)}).Run(context.Background()); err == nil {
		t.Error("no sinks accepted")
	}
}

// TestObservationReplayRoundTrip: the observation leg drops the
// ground-truth fields and wraps what remains in bare records.
func TestObservationReplayRoundTrip(t *testing.T) {
	recs := fakeRecords(25)
	var buf bytes.Buffer
	p := &Pipeline{Source: records(recs), Sinks: []Sink{WriteObservations(&buf)}}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	collect := &Collect{}
	p = &Pipeline{Source: ObservationReplay{R: &buf}, Sinks: []Sink{collect}}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(collect.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(collect.Records), len(recs))
	}
	for i, got := range collect.Records {
		want := Record{Observation: recs[i].Observation}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: observation replay = %+v, want bare %+v", i, got, want)
		}
	}
}

// TestReplayDecodeError: a corrupt trace surfaces the decoder's error
// through Run.
func TestReplayDecodeError(t *testing.T) {
	p := &Pipeline{
		Source: ObservationReplay{R: bytes.NewReader([]byte("{broken"))},
		Sinks:  []Sink{&Collect{}},
	}
	if err := p.Run(context.Background()); err == nil {
		t.Fatal("corrupt trace replayed without error")
	}
}

// TestFeedAccumulator: the Feed sink drives a core accumulator to the
// same result as the batch analyzer over the same rows.
func TestFeedAccumulator(t *testing.T) {
	recs := fakeRecords(40)
	var obs []core.Observation
	for _, r := range recs {
		if r.ChosenIdx >= 0 {
			obs = append(obs, r.Observation)
		}
	}
	acc := core.NewAOEAccumulator(5)
	p := &Pipeline{
		Source: records(recs),
		Stages: []Stage{ChosenOnly()},
		Sinks:  []Sink{Feed(acc)},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, err := core.AnalyzeAOE(obs, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fed accumulator diverges from batch analyzer")
	}
}
