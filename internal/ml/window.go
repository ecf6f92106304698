package ml

import (
	"context"
	"fmt"
	"math"
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
// The ring is stored column-major: feature f of the row in slot s is
// cols[f*stride+s], one block allocated at the first Add. Plan reads
// each column in place, so a refit copies no rows.
//
// Not safe for concurrent use; the caller (predict.Service) serializes
// Add/Plan behind its own mutex and publishes the result through a
// SwapForest.
type WindowTrainer struct {
	cfg   WindowConfig
	width int       // features per row, set by the first Add
	cols  []float64 // width columns of stride floats, column-major
	// stride is Capacity plus one cache line: at a power-of-two
	// capacity, a stride of exactly Capacity puts every value of a row
	// in the same cache set, and Add, which writes one value per
	// column, ran about four times slower.
	stride int
	lens   []int // lens[s]: the length of the row Added into slot s
	ys     []int // ys[s]: that row's label
	n      int   // rows held
	head   int   // the slot the next Add writes
	fits   int
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
	return &WindowTrainer{cfg: cfg}, nil
}

// Add folds one labelled row into the window, evicting the oldest row
// once capacity is reached. The vector is copied: callers reuse their
// scratch freely. The first row sets the window's width. A row of
// another width is kept as its length (its values are cut or
// zero-padded to the width), and every refit fails while it is in the
// window: with Dataset.Validate's text when the oldest row has the
// window's width, and saying the window holds rows of another width
// when it does not.
func (w *WindowTrainer) Add(x []float64, y int) {
	c := w.cfg.Capacity
	if w.ys == nil {
		w.width, w.stride = len(x), c+8
		w.cols = make([]float64, w.stride*w.width)
		w.lens = make([]int, c)
		w.ys = make([]int, c)
	}
	m := min(len(x), w.width)
	for f, v := range x[:m] {
		w.cols[f*w.stride+w.head] = v
	}
	for f := m; f < w.width; f++ {
		w.cols[f*w.stride+w.head] = 0
	}
	w.lens[w.head], w.ys[w.head] = len(x), y
	w.head = (w.head + 1) % c
	w.n = min(w.n+1, c)
}

// Len reports the rows currently in the window.
func (w *WindowTrainer) Len() int { return w.n }

// Fits reports how many refits have been claimed (Plan calls).
func (w *WindowTrainer) Fits() int { return w.fits }

// WindowFit is one claimed refit: the window's presort at Plan time
// (or the reason it cannot be fitted) plus the refit's derived seed.
// The presort owns its data, which is what makes no-serving-stall
// refits safe — training reads it while the trainer's ring keeps
// absorbing (and overwriting) rows.
type WindowFit struct {
	fc    *fitContext
	err   error // the window failed Dataset.Validate's checks
	rows  int
	cfg   ForestConfig
	index int
}

// Index is the refit's sequence number (0 for the first).
func (p *WindowFit) Index() int { return p.index }

// Rows reports the snapshot size.
func (p *WindowFit) Rows() int { return p.rows }

// Fit trains the claimed refit. workers overrides the configured pool
// size when > 0; the forest is bit-identical at any value.
func (p *WindowFit) Fit(ctx context.Context, workers int) (*Forest, error) {
	cfg := p.cfg
	if workers > 0 {
		cfg.Workers = workers
	}
	err := p.err
	var f *Forest
	if err == nil {
		f, err = fitForest(ctx, p.fc, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("ml: window refit %d: %w", p.index, err)
	}
	return f, nil
}

// Plan presorts the window oldest-to-newest and claims the next refit
// index. It checks the window as Dataset.Validate would; a window that
// fails is copied into a Dataset, and Fit returns Validate's error. A
// valid window is presorted straight from the columns: each varying
// column is copied, rotated oldest to newest, into one scratch, sorted
// and ranked. The caller may release its lock and keep Adding while
// the fit runs. Refit i is a pure function of (window contents at Plan
// time, base seed, i) — bit-identical at any worker count, and to
// FitForestCtx over the same rows.
func (w *WindowTrainer) Plan() *WindowFit {
	cfg := w.cfg.Forest
	cfg.Seed = w.cfg.Forest.Seed + int64(w.fits)
	p := &WindowFit{rows: w.n, cfg: cfg, index: w.fits}
	w.fits++
	p.fc, p.err = w.presort()
	return p
}

// slot maps row i, oldest first, to its ring slot.
func (w *WindowTrainer) slot(i int) int {
	c := w.cfg.Capacity
	return (w.head - w.n + c + i) % c
}

// presort validates the window and builds its fitContext. Column f
// holds the window in slots [0, n) of cols[f*stride:]; oldest to
// newest, that is the run from the oldest slot to the end of the
// column, then the run before it.
func (w *WindowTrainer) presort() (*fitContext, error) {
	if !w.valid() {
		if err := w.dataset().Validate(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("ml: window rows have %d features, the window holds %d", w.lens[w.slot(0)], w.width)
	}
	s, n, old := w.stride, w.n, w.slot(0)
	fc := &fitContext{numFeatures: w.width, numClasses: w.cfg.NumClasses, y: make([]int32, n)}
	for i := range fc.y {
		fc.y[i] = int32(w.ys[w.slot(i)])
	}
	// Whether a column varies does not depend on the row order.
	varying := make([]bool, w.width)
	for f := range varying {
		held := w.cols[f*s : f*s+n]
		for _, v := range held[1:] {
			if v != held[0] {
				varying[f] = true
				break
			}
		}
	}
	fc.presort(varying, func(f int, col []float64) {
		held := w.cols[f*s : f*s+n]
		copy(col[copy(col, held[old:]):], held[:old])
	})
	return fc, nil
}

// valid reports whether the window passes Dataset.Validate's checks:
// it holds rows, all of the window's width, finite, with labels in
// range.
func (w *WindowTrainer) valid() bool {
	if w.n == 0 {
		return false
	}
	// The window holds slots [0, n), full or not.
	for s := 0; s < w.n; s++ {
		if w.lens[s] != w.width || w.ys[s] < 0 || w.ys[s] >= w.cfg.NumClasses {
			return false
		}
	}
	for f := 0; f < w.width; f++ {
		for _, v := range w.cols[f*w.stride : f*w.stride+w.n] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// dataset copies the window's rows, oldest to newest, each as long as
// it was Added: a row of another width has its values cut or
// zero-padded. Only an invalid window is copied, for Validate's error.
func (w *WindowTrainer) dataset() *Dataset {
	d := &Dataset{NumClasses: w.cfg.NumClasses}
	for i := 0; i < w.n; i++ {
		s := w.slot(i)
		row := make([]float64, w.lens[s])
		for f := range row[:min(len(row), w.width)] {
			row[f] = w.cols[f*w.stride+s]
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, w.ys[s])
	}
	return d
}
