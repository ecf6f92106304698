package ml

import (
	"sync/atomic"
)

// SwapForest is the serving-side model holder: readers load the
// current forest wait-free while a trainer publishes replacements
// atomically. A Forest is immutable after training, so the swap needs
// no copying and no reader-side locks — a predict call either sees the
// whole old model or the whole new one, never a torn mix, and serving
// never stalls during a refit.
type SwapForest struct {
	p atomic.Pointer[Forest]
	// version counts publications; readers pair it with the pointer to
	// report which model answered (approximately — a swap between the
	// two loads can skew the pairing by one, which is fine for
	// observability).
	version atomic.Int64
}

// Load returns the current forest, nil before the first Store.
func (s *SwapForest) Load() *Forest { return s.p.Load() }

// Store publishes f as the serving model and returns the new version
// number (1 for the first model).
func (s *SwapForest) Store(f *Forest) int64 {
	s.p.Store(f)
	return s.version.Add(1)
}

// Version reports how many models have been published.
func (s *SwapForest) Version() int64 { return s.version.Load() }
