package constellation

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/astro"
	"repro/internal/telemetry"
)

// DefaultSnapshotCacheCap bounds the number of unpinned snapshots a
// SnapshotCache retains. A campaign looks at each slot once: the
// engine pins the slot its pool runs and the lookahead slot, and the
// scheduler's Allocate of a slot hits the engine's pin. A consumer
// that re-reads a window pins it (Env.WindowStats). Past that,
// retention buys little reuse: `repro -v all` hits 582 times
// retaining 32 snapshots and 516 retaining 2 at -scale small -slots
// 60, 702 and 696 times at -scale medium -slots 120, in the same wall
// time within run-to-run noise. Each retained snapshot is a state
// buffer, a sunlit slice and an index shell that a fresh cache
// allocates before eviction starts recycling them, so the bound is 2.
const DefaultSnapshotCacheCap = 2

// snapKey identifies one propagated snapshot: which constellation
// (by fingerprint) at which instant. Both the scheduler's Allocate path
// and the campaign engine's AvailableSet path ask for slot-start times,
// so keying by the exact instant makes "propagate once per slot
// globally" fall out of sharing one cache.
type snapKey struct {
	fp   uint64
	unix int64 // UnixNano of the snapshot instant
}

// SharedSnapshot is one cached, refcounted snapshot plus its lazily
// built spatial index. Holders must treat States as read-only and call
// Release exactly once when done; while references are outstanding the
// cache never evicts the entry, so the slice is stable for the
// holder's lifetime.
type SharedSnapshot struct {
	// States holds the satellites this snapshot propagated, in
	// constellation order: every satellite any of the cache's sights
	// can see, and others whose validity windows lapsed (see windows).
	// Its buffer is the entry's own, sized to that count (at most
	// twice it), so a cached snapshot costs what its sweep propagated,
	// not the whole constellation. A cache with no sights propagates
	// every satellite.
	States []SatState
	// Sunlit is every satellite's sunlit state, indexed by
	// Satellite.Pos: the exact state of each propagated satellite, the
	// state a carried one provably keeps, and true for one whose
	// propagation failed.
	Sunlit []bool

	skipped int
	cache   *SnapshotCache
	cover   coverage
	key     snapKey
	refs    int // guarded by cache.mu; 0 while unpinned
	elem    *list.Element

	idxOnce sync.Once
	idx     *SnapshotIndex

	// ready gates late acquirers while the winning goroutine propagates
	// outside the cache lock: one count, done when States is set.
	ready sync.WaitGroup
}

// Skipped returns how many satellites this snapshot dropped because
// propagation failed (see Constellation.PropagationSkips).
func (s *SharedSnapshot) Skipped() int { return s.skipped }

// Index returns the snapshot's spatial index, building it on first use
// (exactly once, shared by every holder). The index shell is drawn
// from the cache's recycle pool when one is available, so steady-state
// slots rebuild into the previous slot's cell buffers instead of
// allocating a fresh grid.
func (s *SharedSnapshot) Index() *SnapshotIndex {
	s.idxOnce.Do(func() {
		t0 := time.Now()
		var ix *SnapshotIndex
		if s.cache != nil {
			ix = s.cache.popIndex()
		}
		if ix == nil {
			ix = &SnapshotIndex{}
		}
		ix.Rebuild(s.States)
		ix.cover = s.cover
		s.idx = ix
		if s.cache != nil && s.cache.metrics != nil {
			s.cache.metrics.indexBuilds.Inc()
			s.cache.metrics.indexBuildMs.Set(float64(time.Since(t0).Nanoseconds()) / 1e6)
		}
	})
	return s.idx
}

// AppendObserveFrom appends the satellites at or above minElevDeg from
// obs, sorted as ObserveFrom sorts them, through the spatial index, or
// through the linear scan of States when linear is set; both give the
// same set, order and floats. It panics when obs at minElevDeg is not
// covered by the cache's sights: the snapshot may lack satellites such
// a query would see.
func (s *SharedSnapshot) AppendObserveFrom(dst []Visible, obs astro.Geodetic, minElevDeg float64, linear bool) []Visible {
	if linear {
		s.cover.check(obs, minElevDeg)
		return AppendObserveFrom(dst, obs, s.States, minElevDeg)
	}
	return s.Index().AppendObserveFrom(dst, obs, minElevDeg)
}

// Release returns the holder's reference. The entry stays cached (LRU,
// bounded) for future hits; dropping the last reference of an entry
// already evicted from the table lets the GC reclaim it.
func (s *SharedSnapshot) Release() {
	if s == nil || s.cache == nil {
		return
	}
	s.cache.release(s)
}

// cacheMetrics is the cache's telemetry bundle (nil when disabled).
type cacheMetrics struct {
	hits, misses, evictions *telemetry.Counter
	propSkips               *telemetry.Counter
	entries                 *telemetry.Gauge
	indexBuilds             *telemetry.Counter
	indexBuildMs            *telemetry.FloatGauge
	bufferReuses            *telemetry.Counter
	propagated, carried     *telemetry.Counter
}

// snapPoolCap bounds each recycle pool (state slices and index
// shells). Steady-state campaigns cycle one or two buffers; anything
// beyond the bound is dropped to the GC rather than hoarded.
const snapPoolCap = 8

// statesHeadroom sizes a new bounded-sweep state buffer at
// 1 + 1/statesHeadroom of the states it first holds, so a later slot
// that propagates a few more satellites can still reuse it. While
// starlink-full's windows warm up at the study sites (about 250
// satellites propagated at the second slot, 600 by the sixtieth), an
// eighth regrew 11 buffers over 200 slots and a quarter 7, 52 KB less.
const statesHeadroom = 4

// SnapshotCache shares propagated constellation snapshots — and their
// spatial indexes — across every consumer of a slot: the scheduler's
// Allocate path, the campaign engine, and repeated queries within a
// slot (netsim probes). Entries are refcounted; the LRU bound applies
// only to unpinned entries, so a holder's States slice is never
// yanked. Safe for concurrent use; concurrent Acquires of the same key
// propagate once (late arrivals block until the winner finishes).
//
// A cache built with sights propagates only what they can see: each
// constellation keeps per-satellite validity windows (see windows),
// and a sweep carries every satellite inside its window. Sweeps of one
// constellation take turns on its windows.
type SnapshotCache struct {
	mu      sync.Mutex
	cap     int
	entries map[snapKey]*SharedSnapshot
	lru     *list.List // front = most recent; unpinned entries only
	metrics *cacheMetrics

	// workers is the snapshot fan-out Acquire propagates with (see
	// SetSnapshotWorkers).
	workers int

	// sights is the fixed set of fields of view the snapshots answer
	// (nil: all of them); windows holds each constellation's validity
	// windows, by fingerprint, when there are sights.
	sights  []Sight
	cover   coverage
	windows map[uint64]*windows

	// Recycle pools, fed exclusively by eviction — the one point where
	// refs == 0 is guaranteed (only unpinned entries sit on the LRU), so
	// a pooled buffer can never alias a snapshot a holder still sees.
	statePool  [][]SatState
	sunlitPool [][]bool
	idxPool    []*SnapshotIndex
}

// NewSnapshotCache builds a cache retaining up to capacity unpinned
// snapshots (<= 0 selects DefaultSnapshotCacheCap) whose fields of view
// from the given sights are exact; with no sights every snapshot holds
// every satellite. A non-nil registry wires hit/miss/eviction counters,
// the propagation-skip and sweep counters, and the index build-time
// gauge; nil disables telemetry.
func NewSnapshotCache(capacity int, reg *telemetry.Registry, sights ...Sight) *SnapshotCache {
	if capacity <= 0 {
		capacity = DefaultSnapshotCacheCap
	}
	c := &SnapshotCache{
		cap:     capacity,
		entries: make(map[snapKey]*SharedSnapshot),
		lru:     list.New(),
	}
	if len(sights) > 0 {
		c.sights = append([]Sight(nil), sights...)
		c.cover = newCoverage(sights)
		c.windows = make(map[uint64]*windows)
	}
	if reg != nil {
		c.metrics = &cacheMetrics{
			hits:         reg.Counter("snapshot_cache_hits_total", "snapshot cache lookups served from cache"),
			misses:       reg.Counter("snapshot_cache_misses_total", "snapshot cache lookups that propagated"),
			evictions:    reg.Counter("snapshot_cache_evictions_total", "snapshots evicted by the LRU bound"),
			propSkips:    reg.Counter("constellation_propagation_skips_total", "satellites dropped from snapshots by propagation failures"),
			entries:      reg.Gauge("snapshot_cache_entries", "snapshots currently cached"),
			indexBuilds:  reg.Counter("snapshot_index_builds_total", "spatial indexes built over snapshots"),
			indexBuildMs: reg.FloatGauge("snapshot_index_build_ms", "build time of the most recent spatial index"),
			bufferReuses: reg.Counter("snapshot_buffer_reuses_total", "snapshot state buffers recycled from evicted entries"),
			propagated:   reg.Counter("snapshot_sats_propagated_total", "satellites snapshot sweeps propagated exactly"),
			carried:      reg.Counter("snapshot_sats_carried_total", "satellites snapshot sweeps carried inside their validity windows"),
		}
	}
	return c
}

// SetSnapshotWorkers sets the fan-out Acquire uses when propagating a
// missed snapshot: <= 0 selects GOMAXPROCS, 1 forces the serial sweep.
// It is the one snapshot fan-out setting. Output is byte-identical at
// every value, so this is purely a throughput knob.
func (c *SnapshotCache) SetSnapshotWorkers(n int) {
	c.mu.Lock()
	c.workers = n
	c.mu.Unlock()
}

// popIndex pops a recycled index shell, or nil when the pool is empty.
func (c *SnapshotCache) popIndex() *SnapshotIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	return popPool(&c.idxPool)
}

// Acquire returns the shared snapshot of cons at time t, propagating it
// if no holder has asked yet. The caller owns one reference and must
// Release it.
func (c *SnapshotCache) Acquire(cons *Constellation, t time.Time) *SharedSnapshot {
	key := snapKey{fp: cons.Fingerprint(), unix: t.UnixNano()}
	c.mu.Lock()
	if s, ok := c.entries[key]; ok {
		s.refs++
		if s.elem != nil {
			c.lru.Remove(s.elem)
			s.elem = nil
		}
		c.mu.Unlock()
		s.ready.Wait()
		if c.metrics != nil {
			c.metrics.hits.Inc()
		}
		return s
	}
	s := &SharedSnapshot{cache: c, key: key, refs: 1, cover: c.cover}
	s.ready.Add(1)
	c.entries[key] = s
	if c.metrics != nil {
		c.metrics.entries.Set(int64(len(c.entries)))
	}
	// Claim recycled buffers, the constellation's windows and the
	// worker knob while still under the lock.
	buf := popPool(&c.statePool)
	n := cons.Len()
	sunlit := popPool(&c.sunlitPool)
	if cap(sunlit) < n {
		sunlit = make([]bool, n)
	}
	var w *windows
	if c.sights != nil {
		if w = c.windows[key.fp]; w == nil {
			w = newWindows(c.sights, n)
			c.windows[key.fp] = w
		}
	}
	workers := c.workers
	c.mu.Unlock()

	// Propagate outside the lock: other keys stay acquirable, and late
	// acquirers of this key wait on ready.
	s.Sunlit = sunlit[:n]
	reused := buf != nil
	if w == nil {
		s.States, s.skipped = cons.sweep(buf, s.Sunlit, t, workers, nil)
	} else {
		// Sweeps of one constellation take turns on its windows and
		// their full-size scratch; the entry keeps a copy of what the
		// sweep propagated, in a buffer sized to it.
		w.mu.Lock()
		var swept []SatState
		swept, s.skipped = cons.sweep(w.scratch, s.Sunlit, t, workers, w)
		w.scratch = swept[:0]
		if k := len(swept); cap(buf) < k || cap(buf) > 2*k {
			// A pooled buffer more than twice the need goes to the GC.
			buf, reused = make([]SatState, 0, k+k/statesHeadroom), false
		}
		s.States = append(buf[:0], swept...)
		w.mu.Unlock()
	}
	s.ready.Done()
	if c.metrics != nil {
		c.metrics.misses.Inc()
		if reused {
			c.metrics.bufferReuses.Inc()
		}
		if s.skipped > 0 {
			c.metrics.propSkips.Add(int64(s.skipped))
		}
		swept := len(s.States) + s.skipped
		c.metrics.propagated.Add(int64(swept))
		c.metrics.carried.Add(int64(n - swept))
	}
	return s
}

// popPool pops a recycled value, or the zero value when the pool is
// empty.
func popPool[T any](pool *[]T) (v T) {
	p := *pool
	if len(p) == 0 {
		return v
	}
	v = p[len(p)-1]
	var zero T
	p[len(p)-1] = zero
	*pool = p[:len(p)-1]
	return v
}

// release drops one reference; the last release parks the entry on the
// LRU list and enforces the capacity bound.
func (c *SnapshotCache) release(s *SharedSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.refs--
	if s.refs > 0 {
		return
	}
	if c.entries[s.key] != s {
		return // already evicted while pinned; GC reclaims it now
	}
	s.elem = c.lru.PushFront(s)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		old := back.Value.(*SharedSnapshot)
		c.lru.Remove(back)
		old.elem = nil
		delete(c.entries, old.key)
		// Eviction is the one safe recycle point: only unpinned entries
		// (refs == 0, no holders) sit on the LRU, so the evicted buffers
		// cannot alias a snapshot anyone still references. Detach them
		// from the dead entry so a stale holder bug fails loudly (nil
		// States) instead of silently reading recycled data.
		if len(c.statePool) < snapPoolCap && old.States != nil {
			c.statePool = append(c.statePool, old.States[:0])
		}
		if len(c.sunlitPool) < snapPoolCap && old.Sunlit != nil {
			c.sunlitPool = append(c.sunlitPool, old.Sunlit)
		}
		if len(c.idxPool) < snapPoolCap && old.idx != nil {
			c.idxPool = append(c.idxPool, old.idx)
		}
		old.States, old.Sunlit, old.idx = nil, nil, nil
		if c.metrics != nil {
			c.metrics.evictions.Inc()
		}
	}
	if c.metrics != nil {
		c.metrics.entries.Set(int64(len(c.entries)))
	}
}

// Len reports the number of cached snapshots (pinned + unpinned).
func (c *SnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Pinned reports how many cached snapshots have outstanding references.
func (c *SnapshotCache) Pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.entries {
		if s.refs > 0 {
			n++
		}
	}
	return n
}
