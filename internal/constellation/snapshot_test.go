package constellation

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/geo"
	"repro/internal/telemetry"
)

// parallelConfig builds a constellation spanning several worker chunks
// (648 satellites > 2 × snapshotChunk), so the sweep's fan-out path
// actually engages — smallConfig's 120 satellites resolve to a serial
// sweep at any worker count.
func parallelConfig() Config {
	return Config{
		Shells: []Shell{
			{Name: "pa", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 22, PhasingF: 7},
			{Name: "pb", AltitudeKm: 570, InclinationDeg: 70, Planes: 6, SatsPerPlane: 20, PhasingF: 3},
		},
		Seed: 3,
	}
}

// fullSnapshot propagates every satellite of c at t: the sweep a
// SnapshotCache with no sights runs on a miss.
func fullSnapshot(c *Constellation, t time.Time) []SatState {
	states, _ := c.sweep(nil, nil, t, 1, nil)
	return states
}

// snapshotRun is one worker count's observable output: the states plus
// the constellation's complete skip accounting afterward.
type snapshotRun struct {
	states  []SatState
	skipped int
	total   int64
	bySat   map[int]string
}

func runSnapshot(t *testing.T, workers int, at time.Duration, failIdx []int) snapshotRun {
	t.Helper()
	cons, err := New(parallelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range failIdx {
		cons.Sats[i].Propagator = failEph{epoch: cons.Epoch}
	}
	states, skipped := cons.sweep(nil, nil, cons.Epoch.Add(at), workers, nil)
	total, bySat := cons.PropagationSkips()
	return snapshotRun{states: states, skipped: skipped, total: total, bySat: bySat}
}

// TestSnapshotSweepWorkerIdentity is the golden byte-identity check:
// states (values, order, float bits), skip totals, and per-satellite
// first-error text must be identical at every worker count, including
// with failing propagators scattered across chunks.
func TestSnapshotSweepWorkerIdentity(t *testing.T) {
	failIdx := []int{5, 300, 640}
	golden := runSnapshot(t, 1, 30*time.Minute, failIdx)
	if golden.skipped != len(failIdx) || golden.total != int64(len(failIdx)) {
		t.Fatalf("serial run skipped %d (total %d), want %d", golden.skipped, golden.total, len(failIdx))
	}
	for _, workers := range []int{4, 8} {
		got := runSnapshot(t, workers, 30*time.Minute, failIdx)
		if len(got.states) != len(golden.states) {
			t.Fatalf("workers=%d: %d states, serial %d", workers, len(got.states), len(golden.states))
		}
		for i := range got.states {
			g, w := got.states[i], golden.states[i]
			if g.Sat.ID != w.Sat.ID || g.Sunlit != w.Sunlit ||
				math.Float64bits(g.ECEF.X) != math.Float64bits(w.ECEF.X) ||
				math.Float64bits(g.ECEF.Y) != math.Float64bits(w.ECEF.Y) ||
				math.Float64bits(g.ECEF.Z) != math.Float64bits(w.ECEF.Z) {
				t.Fatalf("workers=%d: state %d = {%d %v %v}, serial {%d %v %v}",
					workers, i, g.Sat.ID, g.ECEF, g.Sunlit, w.Sat.ID, w.ECEF, w.Sunlit)
			}
		}
		if got.skipped != golden.skipped || got.total != golden.total {
			t.Fatalf("workers=%d: skipped %d/%d, serial %d/%d",
				workers, got.skipped, got.total, golden.skipped, golden.total)
		}
		if len(got.bySat) != len(golden.bySat) {
			t.Fatalf("workers=%d: %d distinct failing sats, serial %d", workers, len(got.bySat), len(golden.bySat))
		}
		for id, msg := range golden.bySat {
			if got.bySat[id] != msg {
				t.Fatalf("workers=%d: sat %d first error %q, serial %q", workers, id, got.bySat[id], msg)
			}
		}
	}
}

// TestSnapshotSweepZeroAlloc: the steady-state serial slot path — a
// warm reused buffer, scratch-capable propagators — allocates nothing.
func TestSnapshotSweepZeroAlloc(t *testing.T) {
	cons, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	at := cons.Epoch.Add(time.Hour)
	buf, _ := cons.sweep(nil, nil, at, 1, nil)
	first := &buf[0]
	allocs := testing.AllocsPerRun(10, func() {
		buf, _ = cons.sweep(buf, nil, at, 1, nil)
	})
	if allocs != 0 {
		t.Fatalf("warm serial sweep allocates %v per run, want 0", allocs)
	}
	if &buf[0] != first {
		t.Fatal("warm sweep abandoned its reusable backing array")
	}
}

// TestSnapshotCachePoolRecycle proves the eviction-fed recycle path:
// an evicted snapshot's state buffer and index shell are reused by the
// next propagation, and a recycled buffer never aliases a snapshot a
// holder still references.
func TestSnapshotCachePoolRecycle(t *testing.T) {
	cons := testCons(t)
	reg := telemetry.NewRegistry()
	cache := NewSnapshotCache(1, reg)
	t0 := cons.Epoch.Add(time.Hour)

	pinned := cache.Acquire(cons, t0)
	pinnedFirst := pinned.States[0]
	pinnedPtr := &pinned.States[0]

	b := cache.Acquire(cons, t0.Add(time.Minute))
	bPtr := &b.States[0]
	bIdx := b.Index()
	b.Release() // parked on the LRU (within capacity)

	c := cache.Acquire(cons, t0.Add(2*time.Minute))
	c.Release() // exceeds capacity: evicts b, feeding the pools

	d := cache.Acquire(cons, t0.Add(3*time.Minute))
	defer d.Release()
	if &d.States[0] != bPtr {
		t.Fatal("evicted snapshot's state buffer was not recycled")
	}
	if &d.States[0] == pinnedPtr {
		t.Fatal("recycled buffer aliases a still-pinned snapshot")
	}
	if d.Index() != bIdx {
		t.Fatal("evicted snapshot's index shell was not recycled")
	}
	if pinned.States[0] != pinnedFirst {
		t.Fatal("pinned snapshot changed after buffer recycling — aliasing bug")
	}
	if n := counterValue(reg, "snapshot_buffer_reuses_total"); n != 1 {
		t.Fatalf("snapshot_buffer_reuses_total = %d, want 1", n)
	}
	pinned.Release()
}

// TestSnapshotIndexRebuildReusesCells: Rebuild over a new snapshot of
// the same constellation keeps the backing arrays of the CSR offsets
// and satellite list (the grid dims and the satellite count are
// unchanged), and answers queries identically to a fresh build.
func TestSnapshotIndexRebuildReusesCells(t *testing.T) {
	cons := testCons(t)
	t0 := cons.Epoch.Add(time.Hour)
	snap1 := fullSnapshot(cons, t0)
	ix := NewSnapshotIndex(snap1)
	startBefore, idxBefore := &ix.start[0], &ix.idx[0]

	snap2 := fullSnapshot(cons, t0.Add(5*time.Minute))
	ix.Rebuild(snap2)
	if &ix.start[0] != startBefore {
		t.Fatal("Rebuild with unchanged grid dims reallocated the cell offsets")
	}
	if &ix.idx[0] != idxBefore {
		t.Fatal("Rebuild over as many satellites reallocated the satellite list")
	}
	if allocs := testing.AllocsPerRun(5, func() { ix.Rebuild(snap1) }); allocs != 0 {
		t.Fatalf("warm Rebuild allocates %v per run, want 0", allocs)
	}
	ix.Rebuild(snap2)

	fresh := NewSnapshotIndex(snap2)
	for _, obs := range []astro.Geodetic{
		{LatDeg: 47.6, LonDeg: -122.3}, {LatDeg: -33.9, LonDeg: 151.2}, {LatDeg: 0.1, LonDeg: 0.1},
	} {
		got := ix.ObserveFrom(obs, 25)
		want := fresh.ObserveFrom(obs, 25)
		if len(got) != len(want) {
			t.Fatalf("rebuilt index sees %d satellites from %v, fresh build %d", len(got), obs, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rebuilt index result %d = %+v, fresh build %+v", i, got[i], want[i])
			}
		}
	}
}

// TestSatellitePositions checks that every satellite's Pos is its
// index in Sats: assigned by New, and by the first snapshot of a
// hand-built constellation, whatever order its IDs come in.
func TestSatellitePositions(t *testing.T) {
	built, err := New(parallelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range built.Sats {
		if s.Pos() != i {
			t.Fatalf("New: satellite %d at index %d has Pos %d", s.ID, i, s.Pos())
		}
	}
	var sats []*Satellite
	for _, id := range []int{900, 100, 500} {
		sats = append(sats, &Satellite{ID: id, Propagator: built.Sats[0].Propagator})
	}
	hand := &Constellation{Sats: sats, Epoch: built.Epoch}
	for i, st := range fullSnapshot(hand, built.Epoch) {
		if st.Sat.Pos() != i {
			t.Fatalf("hand-built: satellite %d at index %d has Pos %d", st.Sat.ID, i, st.Sat.Pos())
		}
	}
}

// TestBoundedSnapshotRetainedMemory: a cache with sights keeps, per
// entry, a state buffer sized to what its sweep propagated. After 64
// slots of the full Starlink constellation under the study sites' 25°
// sights, the cached entries' state capacity is at most twice their
// length plus one constellation's worth (the first slots, before any
// window opens, propagate every satellite).
func TestBoundedSnapshotRetainedMemory(t *testing.T) {
	cons, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sights []Sight
	for _, vp := range geo.StudyVantagePoints() {
		sights = append(sights, Sight{Site: vp.Location, MinElevDeg: 25})
	}
	cache := NewSnapshotCache(0, nil, sights...)
	start := cons.Epoch.Add(time.Hour)
	for k := 0; k < 64; k++ {
		cache.Acquire(cons, start.Add(time.Duration(k)*15*time.Second)).Release()
	}
	capSum, lenSum := 0, 0
	for _, s := range cache.entries {
		capSum += cap(s.States)
		lenSum += len(s.States)
	}
	if len(cache.entries) != DefaultSnapshotCacheCap {
		t.Fatalf("%d cached entries, want %d", len(cache.entries), DefaultSnapshotCacheCap)
	}
	if lenSum >= len(cache.entries)*cons.Len()/2 {
		t.Fatalf("cached entries hold %d states over %d entries; the sweeps carried almost nothing", lenSum, len(cache.entries))
	}
	if capSum > 2*lenSum+cons.Len() {
		t.Fatalf("cached entries retain %d states of capacity for %d states, want at most %d", capSum, lenSum, 2*lenSum+cons.Len())
	}
	t.Logf("%d entries: %d states, capacity %d (a full-size buffer each would be %d)", len(cache.entries), lenSum, capSum, len(cache.entries)*cons.Len())
}

// TestBoundedSweepWorkerIdentity: a cache with sights hands out the
// same states (set, order, float bits), sunlit states and skip counts
// at every snapshot fan-out, slot after slot, so the windows the
// sweeps open agree too. Run under -race.
func TestBoundedSweepWorkerIdentity(t *testing.T) {
	sights := []Sight{
		{Site: astro.Geodetic{LatDeg: 41.7, LonDeg: -91.5}, MinElevDeg: 25},
		{Site: astro.Geodetic{LatDeg: -33.9, LonDeg: 151.2}, MinElevDeg: 10},
	}
	failIdx := []int{5, 300, 640}
	type slot struct {
		states  []SatState
		sunlit  []bool
		skipped int
	}
	run := func(workers int) []slot {
		cons, err := New(parallelConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range failIdx {
			cons.Sats[i].Propagator = failEph{epoch: cons.Epoch}
		}
		cache := NewSnapshotCache(2, nil, sights...)
		cache.SetSnapshotWorkers(workers)
		var out []slot
		for k := 0; k < 40; k++ {
			s := cache.Acquire(cons, cons.Epoch.Add(time.Duration(k)*15*time.Second))
			out = append(out, slot{append([]SatState(nil), s.States...), append([]bool(nil), s.Sunlit...), s.Skipped()})
			s.Release()
		}
		return out
	}
	serial := run(1)
	if n, all := len(serial[len(serial)-1].states), len(serial[0].states); n >= all {
		t.Fatalf("the last slot propagated %d satellites, the first %d: the sweeps carried nothing", n, all)
	}
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		for k := range serial {
			g, w := got[k], serial[k]
			if g.skipped != w.skipped || !reflect.DeepEqual(g.sunlit, w.sunlit) || len(g.states) != len(w.states) {
				t.Fatalf("workers=%d slot %d: %d states, %d skipped; serial %d, %d (or sunlit states differ)",
					workers, k, len(g.states), g.skipped, len(w.states), w.skipped)
			}
			for i := range g.states {
				a, b := g.states[i], w.states[i]
				if a.Sat.ID != b.Sat.ID || a.Sunlit != b.Sunlit ||
					math.Float64bits(a.ECEF.X) != math.Float64bits(b.ECEF.X) ||
					math.Float64bits(a.ECEF.Y) != math.Float64bits(b.ECEF.Y) ||
					math.Float64bits(a.ECEF.Z) != math.Float64bits(b.ECEF.Z) {
					t.Fatalf("workers=%d slot %d: state %d = {%d %v %v}, serial {%d %v %v}",
						workers, k, i, a.Sat.ID, a.ECEF, a.Sunlit, b.Sat.ID, b.ECEF, b.Sunlit)
				}
			}
		}
	}
}
