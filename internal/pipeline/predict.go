package pipeline

// Online-inference plumbing: the predict service (internal/predict)
// implements OnlineScorer, and campaigns hang it off a stream as a
// sink with a per-record callback (drift experiments that watch the
// windowed accuracy slot by slot). The pipeline package stays
// dependency-light — it sees only the interface, never the model.

// ScoreUpdate is one record's outcome through an online scorer: was it
// scored at all (records with no chosen satellite, or arriving before
// the first model is fit, are observed but not scored), where the true
// allocation ranked, and the scorer's windowed health after folding
// the outcome in.
type ScoreUpdate struct {
	// Scored reports whether a prediction was made and ranked against
	// the revealed allocation.
	Scored bool
	// Rank is the 1-based position of the true cluster in the model's
	// ranking (1 = top-1 hit). 0 when !Scored.
	Rank int
	// RecentTop1/RecentTopK are the short-window accuracies; RefTop1 is
	// the long reference window the drift detector compares against.
	RecentTop1 float64
	RecentTopK float64
	RefTop1    float64
	// Drift reports whether the detector currently considers the model
	// stale; DriftEvents counts rising edges so far.
	Drift       bool
	DriftEvents int
	// Refits counts models trained so far; ModelVersion is the serving
	// model's publication number (0 = still on baseline/none).
	Refits       int
	ModelVersion int64
}

// OnlineScorer folds one revealed slot into an online model: predict
// before looking at the answer, score the prediction, learn from the
// row. Implementations decide their own refit cadence.
type OnlineScorer interface {
	ObserveRecord(rec *Record) (ScoreUpdate, error)
}

// ScoreSink feeds records through the scorer and hands each update to
// onUpdate (which may be nil). Like every sink, it must not retain rec
// past the call — the pipeline reuses the record.
func ScoreSink(s OnlineScorer, onUpdate func(rec *Record, up ScoreUpdate)) Sink {
	return SinkFunc(func(rec *Record) error {
		up, err := s.ObserveRecord(rec)
		if err != nil {
			return err
		}
		if onUpdate != nil {
			onUpdate(rec, up)
		}
		return nil
	})
}
