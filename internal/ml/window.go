package ml

import (
	"context"
	"fmt"
)

// WindowConfig sizes a sliding-window trainer.
type WindowConfig struct {
	// Capacity is the maximum rows retained; older rows fall off as new
	// ones arrive.
	Capacity int
	// NumClasses is the label-space size of every dataset the window
	// materializes.
	NumClasses int
	// Forest is the per-refit training configuration. Forest.Seed is a
	// BASE seed: refit i trains with Seed + i, so consecutive refits
	// draw fresh bootstraps while the whole sequence stays reproducible
	// from the base.
	Forest ForestConfig
}

// WindowTrainer accumulates labelled rows in a fixed-capacity ring and
// refits a forest on the current window on demand — the online
// counterpart of the §6 batch protocol. It is the deterministic half
// of the serving loop: Fit(i-th call) is a pure function of (window
// contents, base seed, i), bit-identical at any worker count, so two
// services fed the same stream publish byte-identical models.
//
// Not safe for concurrent use; the caller (predict.Service) serializes
// Add/Fit behind its own mutex and publishes the result through a
// SwapForest.
type WindowTrainer struct {
	cfg  WindowConfig
	xs   [][]float64 // ring, insertion order
	ys   []int
	head int // next write position once the ring is full
	full bool
	fits int
}

// NewWindowTrainer validates the configuration and returns an empty
// trainer.
func NewWindowTrainer(cfg WindowConfig) (*WindowTrainer, error) {
	if cfg.Capacity <= 1 {
		return nil, fmt.Errorf("ml: window capacity %d, need >= 2", cfg.Capacity)
	}
	if cfg.NumClasses <= 0 {
		return nil, fmt.Errorf("ml: window needs a positive class count, got %d", cfg.NumClasses)
	}
	return &WindowTrainer{
		cfg: cfg,
		xs:  make([][]float64, 0, cfg.Capacity),
		ys:  make([]int, 0, cfg.Capacity),
	}, nil
}

// Add folds one labelled row into the window, evicting the oldest row
// once capacity is reached. The vector is copied: callers reuse their
// scratch freely.
func (w *WindowTrainer) Add(x []float64, y int) {
	if !w.full {
		w.xs = append(w.xs, append([]float64(nil), x...))
		w.ys = append(w.ys, y)
		if len(w.xs) == w.cfg.Capacity {
			w.full = true
		}
		return
	}
	// Reuse the evicted row's backing array when it fits.
	dst := w.xs[w.head][:0]
	w.xs[w.head] = append(dst, x...)
	w.ys[w.head] = y
	w.head = (w.head + 1) % w.cfg.Capacity
}

// Len reports the rows currently in the window.
func (w *WindowTrainer) Len() int { return len(w.xs) }

// Fits reports how many refits have been claimed (Plan calls).
func (w *WindowTrainer) Fits() int { return w.fits }

// WindowFit is one claimed refit: a deep copy of the window at Plan
// time plus the refit's derived seed. The copy is what makes
// no-serving-stall refits safe — training reads the snapshot while the
// trainer's ring keeps absorbing (and overwriting) rows.
type WindowFit struct {
	d     *Dataset
	cfg   ForestConfig
	index int
}

// Index is the refit's sequence number (0 for the first).
func (p *WindowFit) Index() int { return p.index }

// Rows reports the snapshot size.
func (p *WindowFit) Rows() int { return len(p.d.X) }

// Fit trains the claimed refit. workers overrides the configured pool
// size when > 0; the forest is bit-identical at any value.
func (p *WindowFit) Fit(ctx context.Context, workers int) (*Forest, error) {
	cfg := p.cfg
	if workers > 0 {
		cfg.Workers = workers
	}
	f, err := FitForestCtx(ctx, p.d, cfg)
	if err != nil {
		return nil, fmt.Errorf("ml: window refit %d: %w", p.index, err)
	}
	return f, nil
}

// Plan snapshots the window oldest-to-newest and claims the next refit
// index; the rows are deep-copied so the caller may release its lock
// and keep Adding while the fit runs. Refit i is a pure function of
// (window contents at Plan time, base seed, i) — bit-identical at any
// worker count.
func (w *WindowTrainer) Plan() *WindowFit {
	n := len(w.xs)
	d := &Dataset{
		X:          make([][]float64, n),
		Y:          make([]int, n),
		NumClasses: w.cfg.NumClasses,
	}
	var flat []float64
	if n > 0 {
		flat = make([]float64, 0, n*len(w.xs[0]))
	}
	// head is the oldest row once the ring wrapped, 0 before.
	for i := 0; i < n; i++ {
		j := i
		if w.full {
			j = (w.head + i) % n
		}
		flat = append(flat, w.xs[j]...)
		d.X[i] = flat[len(flat)-len(w.xs[j]):]
		d.Y[i] = w.ys[j]
	}
	cfg := w.cfg.Forest
	cfg.Seed = w.cfg.Forest.Seed + int64(w.fits)
	p := &WindowFit{d: d, cfg: cfg, index: w.fits}
	w.fits++
	return p
}
