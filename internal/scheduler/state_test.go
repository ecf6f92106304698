package scheduler

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/power"
	"repro/internal/sgp4"
	"repro/internal/units"
)

// failingEph is a propagator whose every propagation fails, so its
// satellite drops out of every snapshot.
type failingEph struct{ epoch time.Time }

var errStale = errors.New("stale elements")

func (f failingEph) Epoch() time.Time { return f.epoch }
func (f failingEph) Propagate(float64) (sgp4.State, error) {
	return sgp4.State{}, errStale
}
func (f failingEph) PropagateAt(time.Time) (sgp4.State, error) {
	return sgp4.State{}, errStale
}

// TestCandidatesAtStepsBattery is the regression test for the slot
// advance: CandidatesAt reaching a slot first must step the battery
// fleet together with the load walk, so a later Allocate for the same
// slot leaves every satellite's state of charge where Allocate alone
// leaves it.
func TestCandidatesAtStepsBattery(t *testing.T) {
	cons := testConstellation(t)
	build := func() *Global {
		g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	at := cons.Epoch.Add(20 * time.Minute)
	probed, plain := build(), build()
	probed.CandidatesAt(probed.Terminals()[0], at)
	probed.Allocate(at)
	plain.Allocate(at)
	for i := 0; i < cons.Len(); i++ {
		if a, b := probed.Fleet().SoC(i), plain.Fleet().SoC(i); a != b {
			t.Fatalf("satellite at position %d: SoC %v after CandidatesAt+Allocate, %v after Allocate", i, a, b)
		}
	}
	if plain.Fleet().SoC(0) == power.DefaultBatteryConfig().InitialSoC {
		t.Fatal("Allocate did not step the fleet; the comparison is vacuous")
	}
}

// TestAllocateSkippedSatelliteStaysSunlit pins the dense state to the
// map semantics it replaced: a satellite whose propagation fails is
// missing from the snapshot, and its battery keeps stepping as sunlit,
// at its hidden load.
func TestAllocateSkippedSatelliteStaysSunlit(t *testing.T) {
	epoch := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	start := EpochStart(epoch.Add(time.Hour))
	// Two healthy satellites over the terminal, and one in the middle
	// that never propagates: a hand-built constellation, so positions
	// come from its first snapshot.
	pos := units.Vec3{X: units.EarthRadiusKm + 550}
	sats := []*constellation.Satellite{
		{ID: 300, Launch: epoch, Propagator: fixedEph{pos: pos, epoch: epoch}},
		{ID: 100, Launch: epoch, Propagator: failingEph{epoch: epoch}},
		{ID: 200, Launch: epoch, Propagator: fixedEph{pos: pos, epoch: epoch}},
	}
	cons := &constellation.Constellation{Sats: sats, Epoch: epoch}
	ecef := astro.FrameAt(start).ToECEF(pos)
	// pos lies in the equatorial plane, so the sub-satellite point has
	// latitude 0 and the longitude of ecef.
	sub := astro.Geodetic{LonDeg: units.Rad2Deg(math.Atan2(ecef.Y, ecef.X))}
	term := Terminal{VantagePoint: geo.VantagePoint{
		Name:     "term",
		Location: astro.Geodetic{LatDeg: sub.LatDeg, LonDeg: sub.LonDeg},
	}}
	g, err := NewGlobal(Config{
		Constellation:    cons,
		Terminals:        []Terminal{term},
		GSOProtectionDeg: -1,
		GroundStations:   []astro.Geodetic{},
		Seed:             9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := power.NewFleet([]int{100}, power.DefaultBatteryConfig())
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 8; slot++ {
		at := start.Add(time.Duration(slot) * Period)
		g.Allocate(at)
		if n := len(g.CandidatesAt(term, at)); n != 2 {
			t.Fatalf("slot %d: %d candidates, want the 2 healthy satellites", slot, n)
		}
		// The load the fleet stepped with is the walk's value for this
		// slot, which Allocate leaves in place.
		ref.Step(Period, []bool{true}, []float64{g.load[1]})
		if got := g.Fleet().SoC(1); math.Float64bits(got) != math.Float64bits(ref.SoC(0)) {
			t.Fatalf("slot %d: skipped satellite SoC %v, want %v (sunlit at its load)", slot, got, ref.SoC(0))
		}
	}
	if total, _ := cons.PropagationSkips(); total != 8 {
		t.Fatalf("propagation skips = %d, want one per slot", total)
	}
}

// TestAllocateWarmPathAllocs pins AppendAllocate's steady state, the
// slot's snapshot already held and indexed by the caller as the
// campaign engine holds it, appending into the previous slot's
// allocations: nothing is allocated. The load walk, battery step,
// gateway set and candidate sweep all reuse dense per-satellite
// buffers.
func TestAllocateWarmPathAllocs(t *testing.T) {
	cons := testConstellation(t)
	cache := constellation.NewSnapshotCache(64, nil)
	cache.SetSnapshotWorkers(1) // no snapshot fan-out goroutines
	g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7, Snapshots: cache})
	if err != nil {
		t.Fatal(err)
	}
	const warm, runs = 10, 20
	var slots []time.Time
	for i := 0; i < warm+runs+1; i++ {
		at := EpochStart(cons.Epoch.Add(time.Duration(i) * Period))
		shared := cache.Acquire(cons, at)
		defer shared.Release()
		shared.Index()
		slots = append(slots, at)
	}
	var buf []Allocation
	for _, at := range slots[:warm] {
		buf = g.AppendAllocate(buf[:0], at)
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		buf = g.AppendAllocate(buf[:0], slots[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("AppendAllocate warm path: %v allocs per slot, want 0", allocs)
	}
	if len(buf) != len(testTerminals()) {
		t.Fatalf("%d allocations, want one per terminal", len(buf))
	}
}

// markGatewaysLinear is the bent-pipe marking by linear scan: for every
// satellite of the full snapshot, by position, whether some gateway
// sees it at or above the mask.
func markGatewaysLinear(snap []constellation.SatState, gateways []astro.Geodetic, mask float64, n int) []bool {
	observers := make([]astro.Observer, len(gateways))
	for i, gs := range gateways {
		observers[i] = astro.NewObserver(gs)
	}
	marked := make([]bool, n)
	for _, st := range snap {
		for i := range observers {
			if observers[i].Observe(st.ECEF).ElevationDeg >= mask {
				marked[st.Sat.Pos()] = true
				break
			}
		}
	}
	return marked
}

// TestGatewayEligibilityMatchesMarking: deciding bent-pipe eligibility
// per candidate, for the satellites in a terminal's field of view only
// and once per satellite and slot, agrees with the linear marking over
// the whole snapshot on every satellite any terminal sees, for the
// default gateways and for a sparse custom set, with both outcomes
// represented.
func TestGatewayEligibilityMatchesMarking(t *testing.T) {
	cons := testConstellation(t)
	var pops []astro.Geodetic
	for _, p := range geo.StudyPoPs() {
		pops = append(pops, p.Location)
	}
	for _, gateways := range [][]astro.Geodetic{pops, {{LatDeg: 30, LonDeg: -100}, {LatDeg: 52, LonDeg: -60}}} {
		cfg := Config{Constellation: cons, Terminals: testTerminals(), Seed: 7, GSMinElevationDeg: 30}
		if len(gateways) != len(pops) {
			cfg.GroundStations = gateways
		}
		g, err := NewGlobal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[bool]int{}
		for slot := 0; slot < 40; slot++ {
			at := EpochStart(cons.Epoch.Add(time.Duration(slot*9) * Period))
			shared := constellation.NewSnapshotCache(1, nil).Acquire(cons, at)
			snap := shared.States
			marked := markGatewaysLinear(snap, gateways, g.gsMinElev, cons.Len())
			g.slot = SlotIndex(at)
			for _, term := range g.Terminals() {
				for _, v := range constellation.ObserveFrom(term.Location, snap, g.minElev) {
					got := g.seesGateway(v.Sat.Pos(), v.ECEF)
					if got != marked[v.Sat.Pos()] {
						t.Fatalf("slot %d, %s, satellite %d: per-candidate eligibility %v, linear marking %v",
							slot, term.Name, v.Sat.ID, got, marked[v.Sat.Pos()])
					}
					seen[got]++
				}
			}
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Fatalf("gateways %v: eligibility outcomes %v; the comparison is one-sided", gateways, seen)
		}
	}
}
