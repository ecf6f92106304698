package scheduler

import (
	"math"
	"testing"
	"time"

	"repro/internal/astro"
	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/power"
	"repro/internal/units"
)

func testConstellation(t testing.TB) *constellation.Constellation {
	t.Helper()
	c, err := constellation.New(constellation.Config{
		Shells: []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 24, SatsPerPlane: 18, PhasingF: 11},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testTerminals() []Terminal {
	vps := geo.StudyVantagePoints()
	ts := make([]Terminal, len(vps))
	for i, vp := range vps {
		ts[i] = Terminal{VantagePoint: vp}
	}
	return ts
}

func TestEpochGrid(t *testing.T) {
	cases := []struct {
		in   time.Time
		want time.Time
	}{
		{time.Date(2023, 3, 1, 5, 38, 12, 0, time.UTC), time.Date(2023, 3, 1, 5, 38, 12, 0, time.UTC)},
		{time.Date(2023, 3, 1, 5, 38, 13, 0, time.UTC), time.Date(2023, 3, 1, 5, 38, 12, 0, time.UTC)},
		{time.Date(2023, 3, 1, 5, 38, 26, 0, time.UTC), time.Date(2023, 3, 1, 5, 38, 12, 0, time.UTC)},
		{time.Date(2023, 3, 1, 5, 38, 27, 0, time.UTC), time.Date(2023, 3, 1, 5, 38, 27, 0, time.UTC)},
		{time.Date(2023, 3, 1, 5, 38, 45, 0, time.UTC), time.Date(2023, 3, 1, 5, 38, 42, 0, time.UTC)},
		{time.Date(2023, 3, 1, 5, 38, 58, 0, time.UTC), time.Date(2023, 3, 1, 5, 38, 57, 0, time.UTC)},
		{time.Date(2023, 3, 1, 5, 38, 5, 0, time.UTC), time.Date(2023, 3, 1, 5, 37, 57, 0, time.UTC)},
	}
	for _, c := range cases {
		if got := EpochStart(c.in); !got.Equal(c.want) {
			t.Errorf("EpochStart(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEpochBoundariesAreAtPaperSeconds(t *testing.T) {
	// Boundaries fall at :12, :27, :42, :57 — the exact seconds the
	// paper observed.
	seen := map[int]bool{}
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 8; i++ {
		b := EpochStart(start.Add(time.Duration(i) * Period))
		seen[b.Second()] = true
	}
	for _, want := range []int{12, 27, 42, 57} {
		if !seen[want] {
			t.Errorf("no epoch boundary at second %d (saw %v)", want, seen)
		}
	}
}

func TestSlotIndexStableWithinSlot(t *testing.T) {
	a := time.Date(2023, 3, 1, 5, 38, 27, 0, time.UTC)
	for off := time.Duration(0); off < Period; off += time.Second {
		if SlotIndex(a.Add(off)) != SlotIndex(a) {
			t.Fatalf("slot index changed within slot at +%v", off)
		}
	}
	if SlotIndex(a.Add(Period)) == SlotIndex(a) {
		t.Error("slot index did not change across boundary")
	}
}

func TestNewGlobalValidation(t *testing.T) {
	if _, err := NewGlobal(Config{}); err == nil {
		t.Error("expected error for nil constellation")
	}
	if _, err := NewGlobal(Config{Constellation: testConstellation(t)}); err == nil {
		t.Error("expected error for no terminals")
	}
}

func TestAllocateReturnsEligibleChoice(t *testing.T) {
	cons := testConstellation(t)
	g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	at := cons.Epoch.Add(30 * time.Minute)
	allocs := g.Allocate(at)
	if len(allocs) != 4 {
		t.Fatalf("got %d allocations", len(allocs))
	}
	for _, a := range allocs {
		if !a.SlotStart.Equal(EpochStart(at)) {
			t.Errorf("%s: slot start %v", a.Terminal, a.SlotStart)
		}
		if a.SatID == 0 {
			continue // sparse test constellation may leave a site empty
		}
		if a.ElevationDeg < 25 {
			t.Errorf("%s: chose satellite below mask: %v", a.Terminal, a.ElevationDeg)
		}
		if cons.ByID(a.SatID) == nil {
			t.Errorf("%s: chose unknown satellite %d", a.Terminal, a.SatID)
		}
	}
}

func TestAllocationsChangeAcrossSlots(t *testing.T) {
	cons := testConstellation(t)
	g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	total := 0
	prev := map[string]int{}
	for i := 0; i < 40; i++ {
		at := cons.Epoch.Add(time.Duration(i) * Period)
		for _, a := range g.Allocate(at) {
			if a.SatID == 0 {
				continue
			}
			if p, ok := prev[a.Terminal]; ok {
				total++
				if p != a.SatID {
					changes++
				}
			}
			prev[a.Terminal] = a.SatID
		}
	}
	if total == 0 {
		t.Skip("test constellation left all sites empty")
	}
	if changes == 0 {
		t.Error("allocation never changed over 40 slots")
	}
}

func TestSchedulerPrefersHighElevation(t *testing.T) {
	cons := testConstellation(t)
	g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var chosen, avail []float64
	for i := 0; i < 120; i++ {
		at := cons.Epoch.Add(time.Duration(i) * Period)
		for _, term := range g.Terminals() {
			cands := g.CandidatesAt(term, at)
			if len(cands) < 2 {
				continue
			}
			best := cands[0]
			for _, c := range cands[1:] {
				if c.Score > best.Score {
					best = c
				}
			}
			chosen = append(chosen, best.Look.ElevationDeg)
			for _, c := range cands {
				avail = append(avail, c.Look.ElevationDeg)
			}
		}
	}
	if len(chosen) < 20 {
		t.Skip("not enough multi-candidate slots in the mini constellation")
	}
	if mc, ma := mean(chosen), mean(avail); mc-ma < 5 {
		t.Errorf("chosen mean elevation %v not clearly above available mean %v", mc, ma)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestGSODisabledAblation(t *testing.T) {
	cons := testConstellation(t)
	on, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7, GSOProtectionDeg: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Disabling the exclusion can only widen the candidate set.
	for i := 0; i < 20; i++ {
		at := cons.Epoch.Add(time.Duration(i) * Period)
		for _, term := range on.Terminals() {
			nOn := len(on.CandidatesAt(term, at))
			nOff := len(off.CandidatesAt(term, at))
			if nOff < nOn {
				t.Fatalf("slot %d %s: GSO-off candidates %d < GSO-on %d", i, term.Name, nOff, nOn)
			}
		}
	}
}

func TestMaskReducesCandidates(t *testing.T) {
	cons := testConstellation(t)
	terms := testTerminals()
	g, err := NewGlobal(Config{Constellation: cons, Terminals: terms, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Build a copy of the NY terminal without its mask and compare.
	var ny Terminal
	for _, tm := range terms {
		if tm.Name == "New York" {
			ny = tm
		}
	}
	clear := ny
	clear.Mask = nil
	for i := 0; i < 40; i++ {
		at := cons.Epoch.Add(time.Duration(i) * Period)
		masked := len(g.CandidatesAt(ny, at))
		open := len(g.CandidatesAt(clear, at))
		if masked > open {
			t.Fatalf("slot %d: masked candidates %d > unmasked %d", i, masked, open)
		}
	}
}

func TestMACRoundRobinBands(t *testing.T) {
	terms := testTerminals()
	m := NewMAC(terms)
	if m.RingSize() != 4 {
		t.Fatalf("ring size = %d", m.RingSize())
	}
	for _, term := range terms {
		if bands := m.Bands(term.Name); len(bands) != 1 {
			t.Fatalf("%s bands = %v", term.Name, bands)
		}
	}
}

func TestMACFrameDelayBounded(t *testing.T) {
	m := NewMAC(testTerminals())
	span := time.Duration(m.RingSize()) * DefaultFrameDuration
	base := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 1000; i++ {
		d := m.FrameDelay("Madrid", base.Add(time.Duration(i)*137*time.Microsecond))
		if d < 0 || d >= span {
			t.Fatalf("delay %v out of [0, %v)", d, span)
		}
	}
}

func TestMACFrameDelayPeriodic(t *testing.T) {
	m := NewMAC(testTerminals())
	span := time.Duration(m.RingSize()) * DefaultFrameDuration
	base := time.Date(2023, 3, 1, 0, 0, 0, 123456, time.UTC)
	d0 := m.FrameDelay("Iowa", base)
	d1 := m.FrameDelay("Iowa", base.Add(span))
	if d0 != d1 {
		t.Errorf("delay not periodic: %v vs %v", d0, d1)
	}
}

func TestMACUnknownTerminal(t *testing.T) {
	m := NewMAC(testTerminals())
	if d := m.FrameDelay("nobody", time.Now()); d != 0 {
		t.Errorf("unknown terminal delay = %v", d)
	}
	if b := m.Bands("nobody"); b != nil {
		t.Errorf("unknown terminal bands = %v", b)
	}
}

func TestAllocateDeterministicWithSeed(t *testing.T) {
	cons := testConstellation(t)
	mk := func() []Allocation {
		g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var all []Allocation
		for i := 0; i < 10; i++ {
			all = append(all, g.Allocate(cons.Epoch.Add(time.Duration(i)*Period))...)
		}
		return all
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].SatID != b[i].SatID {
			t.Fatalf("allocation %d differs between identically seeded runs", i)
		}
	}
}

func TestNorthnessComputation(t *testing.T) {
	// Sanity: cos(0) = 1 north, cos(180) = -1 south.
	if math.Cos(units.Deg2Rad(0)) != 1 {
		t.Error("north not 1")
	}
	if math.Cos(units.Deg2Rad(180)) != -1 {
		t.Error("south not -1")
	}
}

// meanSoC is the constellation-average state of charge of g's fleet.
func meanSoC(g *Global) float64 {
	sum := 0.0
	for pos := 0; pos < g.cons.Len(); pos++ {
		sum += g.fleet.SoC(pos)
	}
	return sum / float64(g.cons.Len())
}

func TestBatteryFleetIntegration(t *testing.T) {
	cons := testConstellation(t)
	g, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.Fleet() == nil {
		t.Fatal("battery fleet not built by default")
	}
	before := meanSoC(g)
	for i := 0; i < 20; i++ {
		g.Allocate(cons.Epoch.Add(time.Duration(i) * Period))
	}
	after := meanSoC(g)
	if before == after {
		t.Error("fleet state did not evolve across slots")
	}
	if after < 0.5 || after > 1 {
		t.Errorf("mean SoC drifted to %v", after)
	}

	off, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7, DisableBattery: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Fleet() != nil {
		t.Error("DisableBattery still built a fleet")
	}
}

func TestConstrainedSatellitesExcluded(t *testing.T) {
	cons := testConstellation(t)
	// A brutal battery: eclipsed satellites pin to the floor within a
	// few slots, making them ineligible.
	brutal := power.BatteryConfig{
		CapacityWh:    10,
		SolarW:        4000,
		IdleW:         1200,
		ServeWPerUtil: 2500,
		InitialSoC:    0.16,
		MinSoC:        0.15,
	}
	g, err := NewGlobal(Config{
		Constellation: cons, Terminals: testTerminals(), Seed: 7, Battery: &brutal,
	})
	if err != nil {
		t.Fatal(err)
	}
	picks := 0
	for i := 0; i < 40; i++ {
		at := cons.Epoch.Add(time.Duration(i) * Period)
		for _, a := range g.Allocate(at) {
			if a.SatID == 0 {
				continue
			}
			picks++
			if g.Fleet().Constrained(cons.ByID(a.SatID).Pos()) {
				t.Fatalf("slot %d: constrained satellite %d was chosen", i, a.SatID)
			}
		}
	}
	if picks == 0 {
		t.Skip("no picks under brutal battery in mini constellation")
	}
	constrained := 0
	for pos := 0; pos < cons.Len(); pos++ {
		if g.fleet.Constrained(pos) {
			constrained++
		}
	}
	if constrained == 0 {
		t.Error("brutal battery config constrained nothing; test is vacuous")
	}
}

func TestBentPipeConstraint(t *testing.T) {
	cons := testConstellation(t)
	// Disabled (explicit empty): widest candidate sets.
	off, err := NewGlobal(Config{
		Constellation: cons, Terminals: testTerminals(), Seed: 7,
		GroundStations: []astro.Geodetic{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Default study ground stations.
	on, err := NewGlobal(Config{Constellation: cons, Terminals: testTerminals(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// A single remote gateway (middle of the Pacific): almost nothing
	// qualifies from the continental sites.
	remote, err := NewGlobal(Config{
		Constellation: cons, Terminals: testTerminals(), Seed: 7,
		GroundStations: []astro.Geodetic{{LatDeg: 0, LonDeg: -160}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sumOff, sumOn, sumRemote := 0, 0, 0
	for i := 0; i < 20; i++ {
		at := cons.Epoch.Add(time.Duration(i) * Period)
		for _, term := range on.Terminals() {
			sumOff += len(off.CandidatesAt(term, at))
			sumOn += len(on.CandidatesAt(term, at))
			sumRemote += len(remote.CandidatesAt(term, at))
		}
	}
	if sumOn > sumOff {
		t.Errorf("gateway constraint widened candidates: %d > %d", sumOn, sumOff)
	}
	if sumRemote >= sumOn && sumOn > 0 {
		t.Errorf("remote-gateway candidates %d not below study-gateway %d", sumRemote, sumOn)
	}
	if sumRemote > sumOff/4 {
		t.Errorf("pacific gateway left %d of %d candidates; constraint looks inert", sumRemote, sumOff)
	}
}

// CandidatesAt exposes the scored candidate set for ablation tests.
// The returned slice is freshly allocated (it escapes to the caller),
// never the Allocate scratch.
func (g *Global) CandidatesAt(term Terminal, t time.Time) []Candidate {
	shared := g.snaps.Acquire(g.cons, EpochStart(t))
	defer shared.Release()
	g.advance(SlotIndex(t), shared)
	_, cands := g.appendCandidates(nil, nil, term, shared)
	return cands
}

// RingSize returns the number of frame slots per cycle.
func (m *MAC) RingSize() int { return len(m.ring) }

// Bands returns the frame offsets (in milliseconds) a terminal owns in
// the ring: one per terminal, since every terminal gets one frame per
// cycle.
func (m *MAC) Bands(terminal string) []float64 {
	slot, ok := m.slotOf[terminal]
	if !ok {
		return nil
	}
	return []float64{float64(time.Duration(slot)*DefaultFrameDuration) / float64(time.Millisecond)}
}
