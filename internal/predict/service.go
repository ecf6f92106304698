// Package predict is the online-inference subsystem: a campaign
// stream feeds a warm forest that ranks each slot's clusters before
// the scheduler's choice is revealed, scores itself on the reveal,
// refits incrementally on a sliding window of recent slots, and swaps
// each new model in atomically so serving never stalls. A windowed
// drift detector compares short-horizon accuracy against a longer
// reference and raises a flag (plus a forced refit) when the scheduler
// the model learned stops being the scheduler that's running — the
// online counterpart of the paper's observation that its §6 model is
// specific to the scheduling policy it was trained against.
package predict

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/telemetry"
)

// Config sizes the service. Zero values take the defaults noted on
// each field.
type Config struct {
	// Window is the sliding-window capacity in usable slots
	// (default 2048).
	Window int
	// RefitEvery triggers a refit after this many scored slots
	// (default 256). Drift rising edges force a refit regardless.
	RefitEvery int
	// MinFit is the minimum window fill before the first fit
	// (default RefitEvery).
	MinFit int
	// Trees and MaxDepth shape each refit's forest (defaults 30, 10 —
	// the quick-model operating point).
	Trees    int
	MaxDepth int
	// Workers bounds each refit's training pool (0 = GOMAXPROCS).
	// Forests are bit-identical at any value.
	Workers int
	// Seed is the base training seed; refit i uses Seed+i.
	Seed int64
	// TopK is the hit horizon for the windowed top-k accuracy
	// (default 5, the paper's headline k).
	TopK int
	// AccWindow and RefWindow are the drift detector's short and long
	// accuracy horizons in scored slots (defaults 64, 256).
	AccWindow int
	RefWindow int
	// DriftDrop is the accuracy gap (reference minus recent) that
	// raises the drift flag (default 0.15). The flag clears with
	// hysteresis at half the gap.
	DriftDrop float64
	// Synchronous runs refits inline on the observing goroutine instead
	// of in the background. Serving stalls are back on the table, but
	// the scored stream becomes a pure function of the input stream —
	// what the determinism tests and offline experiments want.
	Synchronous bool
	// Registry receives serving telemetry; nil disables it.
	Registry *telemetry.Registry
}

func (c *Config) applyDefaults() {
	if c.Window == 0 {
		c.Window = 2048
	}
	if c.RefitEvery == 0 {
		c.RefitEvery = 256
	}
	if c.MinFit == 0 {
		c.MinFit = c.RefitEvery
	}
	if c.Trees == 0 {
		c.Trees = 30
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 10
	}
	if c.TopK == 0 {
		c.TopK = 5
	}
	if c.AccWindow == 0 {
		c.AccWindow = 64
	}
	if c.RefWindow == 0 {
		c.RefWindow = 256
	}
	if c.DriftDrop == 0 {
		c.DriftDrop = 0.15
	}
}

// hitRing is a fixed-capacity ring of hit/miss outcomes with a running
// hit count — the windowed-accuracy primitive behind the drift
// detector.
type hitRing struct {
	buf  []bool
	head int
	n    int
	hits int
}

func newHitRing(capacity int) *hitRing { return &hitRing{buf: make([]bool, capacity)} }

func (r *hitRing) push(hit bool) {
	if r.n == len(r.buf) {
		if r.buf[r.head] {
			r.hits--
		}
	} else {
		r.n++
	}
	r.buf[r.head] = hit
	if hit {
		r.hits++
	}
	r.head = (r.head + 1) % len(r.buf)
}

func (r *hitRing) full() bool { return r.n == len(r.buf) }

func (r *hitRing) acc() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.n)
}

// Service is the online scorer/server. Serving reads the model
// wait-free through an atomic swap; the learning state (window, rings,
// refit cadence) sits behind one mutex. It implements
// scenario.OnlineScorer.
type Service struct {
	cfg Config
	m   *metrics

	swap ml.SwapForest

	mu        sync.Mutex
	trainer   *ml.WindowTrainer
	recent1   *hitRing // top-1, short horizon
	recentK   *hitRing // top-K, short horizon
	ref1      *hitRing // top-1, long horizon
	drift     bool
	driftEvts int
	observed  int64 // records seen (incl. unusable)
	scored    int64 // records predicted and ranked
	sinceFit  int   // scored slots since the last refit trigger
	refitting bool  // single-flight guard for async refits

	pool sync.Pool // *Scratch
}

// NewService validates the config and returns an idle service (no
// model yet; records observed before the first fit are absorbed into
// the window but not scored).
func NewService(cfg Config) (*Service, error) {
	cfg.applyDefaults()
	if cfg.TopK < 1 || cfg.TopK > features.NumClusters {
		return nil, fmt.Errorf("predict: top-k %d out of range 1..%d", cfg.TopK, features.NumClusters)
	}
	if cfg.DriftDrop < 0 || cfg.DriftDrop > 1 {
		return nil, fmt.Errorf("predict: drift drop %v out of range 0..1", cfg.DriftDrop)
	}
	if cfg.MinFit < 2 {
		return nil, fmt.Errorf("predict: min fit %d, need >= 2", cfg.MinFit)
	}
	tr, err := ml.NewWindowTrainer(ml.WindowConfig{
		Capacity:   cfg.Window,
		NumClasses: features.NumClusters,
		Forest: ml.ForestConfig{
			NumTrees: cfg.Trees,
			Tree:     ml.TreeConfig{MaxDepth: cfg.MaxDepth},
			Seed:     cfg.Seed,
			Workers:  cfg.Workers,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		m:       newMetrics(cfg.Registry),
		trainer: tr,
		recent1: newHitRing(cfg.AccWindow),
		recentK: newHitRing(cfg.AccWindow),
		ref1:    newHitRing(cfg.RefWindow),
	}
	s.pool.New = func() any { return NewScratch() }
	return s, nil
}

// SetModel installs a pre-trained forest (e.g. loaded from disk by
// predictd) as the serving model. The forest must match the §6 schema;
// load it with ml.LoadForestFor(r, features.VectorLen,
// features.NumClusters) to enforce that at the boundary.
func (s *Service) SetModel(f *ml.Forest) error {
	if f.NumFeatures() != features.VectorLen || f.NumClasses() != features.NumClusters {
		return fmt.Errorf("%w: forest is %dx%d, serving schema is %dx%d",
			ml.ErrModelShape, f.NumFeatures(), f.NumClasses(), features.VectorLen, features.NumClusters)
	}
	v := s.swap.Store(f)
	s.m.modelVersion.Set(v)
	return nil
}

// Model returns the serving forest (nil before the first fit or
// SetModel) and its version.
func (s *Service) Model() (*ml.Forest, int64) { return s.swap.Load(), s.swap.Version() }

// Scratch holds the serve path's reusable buffers. One Scratch serves
// one call at a time; the service keeps an internal pool for the RPC
// handlers, and hot in-process callers hold their own.
type Scratch struct {
	sats  []features.Sat
	slot  features.Slot
	vec   []float64
	probs []float64
	idx   []int

	// The RPC handlers decode their params into these.
	dec        dishrpc.Decoder
	rankReq    PredictRequest
	observeReq ObserveRequest
}

// NewScratch returns serve scratch sized for the §6 schema.
func NewScratch() *Scratch {
	return &Scratch{
		vec:   make([]float64, features.VectorLen),
		probs: make([]float64, features.NumClusters),
		idx:   make([]int, features.NumClusters),
	}
}

// Ranked exposes the cluster ranking filled by the last Rank call,
// best first. The slice aliases the scratch — copy before the next
// call if it must survive.
func (sc *Scratch) Ranked() []int { return sc.idx }

// ErrNoModel is returned by Rank before any model has been fit or
// installed.
var ErrNoModel = fmt.Errorf("predict: no model fit yet")

// Rank clusters the available set, renders the feature vector, and
// ranks all clusters with the serving model, entirely in sc's buffers
// — zero allocations once sc is warm. Returns the serving model's
// version. Safe to call concurrently (distinct sc per caller); never
// blocks on refits.
func (s *Service) Rank(localHour int, sats []features.Sat, sc *Scratch) (int64, error) {
	f := s.swap.Load()
	if f == nil {
		return 0, ErrNoModel
	}
	if err := features.ClusterInto(&sc.slot, sats); err != nil {
		return 0, err
	}
	if err := sc.slot.VectorInto(localHour, sc.vec); err != nil {
		return 0, err
	}
	if err := (ml.ForestRanker{Forest: f}).RankClassesInto(sc.vec, sc.probs, sc.idx); err != nil {
		return 0, err
	}
	return s.swap.Version(), nil
}

// ScoreUpdate is one record's outcome through an online scorer: was it
// scored at all (records with no chosen satellite, or arriving before
// the first model is fit, are observed but not scored), where the true
// allocation ranked, and the scorer's windowed health after folding
// the outcome in.
type ScoreUpdate struct {
	// Scored reports whether a prediction was made and ranked against
	// the revealed allocation.
	Scored bool `json:"scored"`
	// Rank is the 1-based position of the true cluster in the model's
	// ranking (1 = top-1 hit). 0 when !Scored.
	Rank int `json:"rank"`
	// RecentTop1/RecentTopK are the short-window accuracies; RefTop1 is
	// the long reference window the drift detector compares against.
	RecentTop1 float64 `json:"recent_top1"`
	RecentTopK float64 `json:"recent_topk"`
	RefTop1    float64 `json:"ref_top1"`
	// Drift reports whether the detector currently considers the model
	// stale; DriftEvents counts rising edges so far.
	Drift       bool `json:"drift"`
	DriftEvents int  `json:"drift_events"`
	// Refits counts models trained so far; ModelVersion is the serving
	// model's publication number (0 = still on baseline/none).
	Refits       int   `json:"refits"`
	ModelVersion int64 `json:"model_version"`
}

// ObserveRecord folds one revealed slot into the service: rank ahead
// of the reveal (when a model is serving), score the ranking against
// the scheduler's actual choice, slide the window, and refit on
// cadence or drift. Implements scenario.OnlineScorer.
func (s *Service) ObserveRecord(rec *core.SlotRecord) (ScoreUpdate, error) {
	sc := s.pool.Get().(*Scratch)
	defer s.pool.Put(sc)
	sc.sats = rec.AppendSats(sc.sats[:0])
	return s.observe(rec.LocalHour, sc.sats, rec.ChosenIdx, sc)
}

// observe is ObserveRecord on a slot's §6 features: sats is the
// available set and chosen indexes the scheduler's pick in it (a
// record without one is counted but not scored). sc holds the row.
// The observe RPC calls it with the request's satellites as decoded.
func (s *Service) observe(localHour int, sats []features.Sat, chosen int, sc *Scratch) (ScoreUpdate, error) {
	s.m.observed.Add(1)
	if chosen < 0 || chosen >= len(sats) {
		s.mu.Lock()
		s.observed++
		up := s.snapshotLocked(ScoreUpdate{})
		s.mu.Unlock()
		return up, nil
	}
	label, err := features.RowInto(&sc.slot, sats, localHour, chosen, sc.vec)
	if err != nil {
		return ScoreUpdate{}, fmt.Errorf("predict: %w", err)
	}

	// Predict before learning: the model must not see the answer first.
	rank := 0
	f := s.swap.Load()
	if f != nil {
		if err := (ml.ForestRanker{Forest: f}).RankClassesInto(sc.vec, sc.probs, sc.idx); err != nil {
			return ScoreUpdate{}, err
		}
		for i, c := range sc.idx {
			if c == label {
				rank = i + 1
				break
			}
		}
	}

	var fit *ml.WindowFit
	s.mu.Lock()
	s.observed++
	up := ScoreUpdate{}
	if f != nil {
		s.scored++
		s.sinceFit++
		up.Scored = true
		up.Rank = rank
		s.recent1.push(rank == 1)
		s.recentK.push(rank >= 1 && rank <= s.cfg.TopK)
		s.ref1.push(rank == 1)
		s.updateDriftLocked()
	}
	s.trainer.Add(sc.vec, label)
	fit = s.maybePlanRefitLocked()
	up = s.snapshotLocked(up)
	s.mu.Unlock()

	if f != nil {
		s.m.scored.Add(1)
		s.publishAccuracy(up)
	}

	if fit != nil {
		if s.cfg.Synchronous {
			if err := s.runRefit(fit); err != nil {
				return up, err
			}
			// Reflect the just-published model in the update.
			up.ModelVersion = s.swap.Version()
		} else {
			go func() {
				if err := s.runRefit(fit); err != nil {
					s.m.refitErrors.Add(1)
				}
			}()
		}
	}
	return up, nil
}

// updateDriftLocked re-evaluates the drift flag from the rings and
// counts rising edges. Drift fires only once both horizons are full —
// a half-warm reference window would compare incommensurate regimes.
func (s *Service) updateDriftLocked() {
	if !s.recent1.full() || !s.ref1.full() {
		return
	}
	gap := s.ref1.acc() - s.recent1.acc()
	if !s.drift && gap > s.cfg.DriftDrop {
		s.drift = true
		s.driftEvts++
		s.m.driftEvents.Add(1)
		s.m.driftActive.Set(1)
		// Force a refit on the next cadence check.
		s.sinceFit = s.cfg.RefitEvery
	} else if s.drift && gap <= s.cfg.DriftDrop/2 {
		s.drift = false
		s.m.driftActive.Set(0)
	}
}

// maybePlanRefitLocked claims a refit snapshot when the cadence (or a
// drift edge) says so and no fit is already in flight.
func (s *Service) maybePlanRefitLocked() *ml.WindowFit {
	if s.refitting {
		return nil
	}
	if s.trainer.Len() < s.cfg.MinFit {
		return nil
	}
	first := s.swap.Load() == nil
	if !first && s.sinceFit < s.cfg.RefitEvery {
		return nil
	}
	s.refitting = true
	s.sinceFit = 0
	return s.trainer.Plan()
}

// runRefit trains a claimed snapshot and swaps the result in. The
// train runs outside the service lock; the swap is atomic, so serving
// never sees a half-built model and never stalls.
func (s *Service) runRefit(fit *ml.WindowFit) error {
	f, err := fit.Fit(context.Background(), s.cfg.Workers)

	s.mu.Lock()
	s.refitting = false
	s.mu.Unlock()

	if err != nil {
		return fmt.Errorf("predict: refit %d: %w", fit.Index(), err)
	}
	v := s.swap.Store(f)
	s.m.refits.Add(1)
	s.m.modelVersion.Set(v)
	s.m.windowRows.Set(int64(fit.Rows()))
	return nil
}

// snapshotLocked fills the windowed-health fields of an update.
func (s *Service) snapshotLocked(up ScoreUpdate) ScoreUpdate {
	up.RecentTop1 = s.recent1.acc()
	up.RecentTopK = s.recentK.acc()
	up.RefTop1 = s.ref1.acc()
	up.Drift = s.drift
	up.DriftEvents = s.driftEvts
	up.Refits = s.trainer.Fits()
	up.ModelVersion = s.swap.Version()
	return up
}

func (s *Service) publishAccuracy(up ScoreUpdate) {
	s.m.recentTop1.Set(up.RecentTop1)
	s.m.recentTopK.Set(up.RecentTopK)
	s.m.refTop1.Set(up.RefTop1)
}

// Stats is a point-in-time summary of the service, served over RPC and
// used by the drift experiment's report.
type Stats struct {
	Observed     int64   `json:"observed"`
	Scored       int64   `json:"scored"`
	RecentTop1   float64 `json:"recent_top1"`
	RecentTopK   float64 `json:"recent_topk"`
	RefTop1      float64 `json:"ref_top1"`
	Drift        bool    `json:"drift"`
	DriftEvents  int     `json:"drift_events"`
	Refits       int     `json:"refits"`
	ModelVersion int64   `json:"model_version"`
	WindowRows   int     `json:"window_rows"`
}

// Stats snapshots the service's counters and windowed accuracies.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Observed:     s.observed,
		Scored:       s.scored,
		RecentTop1:   s.recent1.acc(),
		RecentTopK:   s.recentK.acc(),
		RefTop1:      s.ref1.acc(),
		Drift:        s.drift,
		DriftEvents:  s.driftEvts,
		Refits:       s.trainer.Fits(),
		ModelVersion: s.swap.Version(),
		WindowRows:   s.trainer.Len(),
	}
}
