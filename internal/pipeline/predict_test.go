package pipeline

import (
	"context"
	"errors"
	"testing"
)

// fakeScorer replays a scripted update.
type fakeScorer struct {
	up  ScoreUpdate
	err error
}

func (f *fakeScorer) ObserveRecord(*Record) (ScoreUpdate, error) { return f.up, f.err }

func TestScoreSinkDeliversUpdates(t *testing.T) {
	recs := fakeRecords(6)
	sc := &fakeScorer{up: ScoreUpdate{Scored: true, Rank: 2, RecentTop1: 0.5}}
	var got []ScoreUpdate
	p := &Pipeline{
		Source: records(recs),
		Sinks: []Sink{ScoreSink(sc, func(rec *Record, up ScoreUpdate) {
			got = append(got, up)
		})},
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("onUpdate fired %d times, want %d", len(got), len(recs))
	}
	for _, up := range got {
		if up.Rank != 2 || up.RecentTop1 != 0.5 {
			t.Fatalf("update not propagated: %+v", up)
		}
	}
}

func TestPredictErrorStopsRun(t *testing.T) {
	boom := errors.New("model exploded")
	p := &Pipeline{Source: records(fakeRecords(3)), Sinks: []Sink{ScoreSink(&fakeScorer{err: boom}, nil)}}
	if err := p.Run(context.Background()); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want scorer error", err)
	}
}
