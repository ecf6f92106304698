package netsim

import (
	"testing"
	"time"

	"repro/internal/constellation"
	"repro/internal/geo"
	"repro/internal/scheduler"
	"repro/internal/stats"
)

// buildPath assembles a dense-enough constellation that the Iowa
// terminal always has a satellite.
func buildPath(t testing.TB, seed int64) (*Path, *constellation.Constellation) {
	t.Helper()
	cons, err := constellation.New(constellation.Config{
		Shells: []constellation.Shell{
			{Name: "s1", AltitudeKm: 550, InclinationDeg: 53, Planes: 36, SatsPerPlane: 20, PhasingF: 17},
		},
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var iowa scheduler.Terminal
	for _, vp := range geo.StudyVantagePoints() {
		if vp.Name == "Iowa" {
			iowa = scheduler.Terminal{VantagePoint: vp}
		}
	}
	glob, err := scheduler.NewGlobal(scheduler.Config{
		Constellation: cons,
		Terminals:     []scheduler.Terminal{iowa},
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPath(Config{
		Constellation: cons,
		Scheduler:     glob,
		Terminal:      iowa,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, cons
}

func TestNewPathValidation(t *testing.T) {
	if _, err := NewPath(Config{}); err == nil {
		t.Error("nil constellation accepted")
	}
	_, cons := buildPath(t, 1)
	if _, err := NewPath(Config{Constellation: cons}); err == nil {
		t.Error("nil scheduler accepted")
	}
}

func TestUnknownPoPRejected(t *testing.T) {
	p, cons := buildPath(t, 2)
	term := p.cfg.Terminal
	term.PoP = "atlantis"
	if _, err := NewPath(Config{Constellation: cons, Scheduler: p.cfg.Scheduler, Terminal: term}); err == nil {
		t.Error("unknown PoP accepted")
	}
}

func TestTraceRTTRange(t *testing.T) {
	p, cons := buildPath(t, 3)
	start := cons.Epoch.Add(10 * time.Minute)
	samples, err := p.Trace(start, 2*time.Minute, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6000 {
		t.Fatalf("%d samples, want 6000", len(samples))
	}
	rtts := RTTs(samples)
	if len(rtts) < 5000 {
		t.Fatalf("only %d delivered samples", len(rtts))
	}
	med := stats.Median(rtts)
	// Starlink RTT to a PoP-colocated server: ~20-70 ms.
	if med < 15 || med > 80 {
		t.Errorf("median RTT = %v ms", med)
	}
	for _, r := range rtts {
		if r < 5 || r > 200 {
			t.Fatalf("implausible RTT %v ms", r)
		}
	}
}

func TestTraceShowsSlotRegimeChanges(t *testing.T) {
	p, cons := buildPath(t, 4)
	start := scheduler.EpochStart(cons.Epoch.Add(10 * time.Minute))
	samples, err := p.Trace(start, 2*time.Minute, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	windows := SplitBySlot(samples)
	if len(windows) < 7 {
		t.Fatalf("only %d slot windows", len(windows))
	}
	// Consecutive windows should be statistically different most of the
	// time (the paper found p < .05 everywhere; with a finite satellite
	// set two adjacent slots occasionally keep the same satellite, so
	// require a majority).
	diff := 0
	tests := 0
	for i := 1; i < len(windows); i++ {
		a := RTTs(windows[i-1])
		b := RTTs(windows[i])
		if len(a) < 8 || len(b) < 8 {
			continue
		}
		res, err := stats.MannWhitneyU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		tests++
		if res.P < 0.05 {
			diff++
		}
	}
	if tests == 0 {
		t.Fatal("no testable window pairs")
	}
	if frac := float64(diff) / float64(tests); frac < 0.6 {
		t.Errorf("only %.0f%% of consecutive windows differ (want most)", frac*100)
	}
}

func TestTraceSatelliteChangesAtBoundaries(t *testing.T) {
	p, cons := buildPath(t, 5)
	start := scheduler.EpochStart(cons.Epoch.Add(30 * time.Minute))
	samples, err := p.Trace(start, 3*time.Minute, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Within a slot the serving satellite must be constant.
	for _, w := range SplitBySlot(samples) {
		first := w[0].SatID
		for _, s := range w {
			if s.SatID != first && s.SatID != 0 && first != 0 {
				t.Fatalf("satellite changed mid-slot: %d -> %d", first, s.SatID)
			}
		}
	}
	// And across the trace it must change at least once.
	ids := map[int]bool{}
	for _, s := range samples {
		if s.SatID != 0 {
			ids[s.SatID] = true
		}
	}
	if len(ids) < 2 {
		t.Errorf("only %d distinct satellites over 3 minutes", len(ids))
	}
}

func TestMACBandsVisible(t *testing.T) {
	p, cons := buildPath(t, 6)
	start := scheduler.EpochStart(cons.Epoch.Add(45 * time.Minute))
	// Probe densely within one slot, no jitter, to expose the bands.
	p.cfg.JitterStdMs = 1e-9
	p.cfg.LossProb = 1e-9
	p.cfg.HandoverLossProb = 1e-9
	samples, err := p.Trace(start.Add(time.Second), 10*time.Second, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rtts := RTTs(samples)
	if len(rtts) < 100 {
		t.Fatalf("%d delivered", len(rtts))
	}
	// The spread inside a slot should be at least one frame (~1.3 ms)
	// because of the MAC ring, even with zero jitter.
	spread := stats.Quantile(rtts, 0.99) - stats.Quantile(rtts, 0.01)
	if spread < 1.0 {
		t.Errorf("in-slot spread = %v ms, want >= 1 (MAC bands)", spread)
	}
}

func TestHandoverLossElevated(t *testing.T) {
	p, cons := buildPath(t, 7)
	p.cfg.LossProb = 0.001
	p.cfg.HandoverLossProb = 0.5
	start := scheduler.EpochStart(cons.Epoch.Add(20 * time.Minute))
	samples, err := p.Trace(start, 5*time.Minute, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var early, late []Sample
	for _, s := range samples {
		if s.T.Sub(scheduler.EpochStart(s.T)) < 300*time.Millisecond {
			early = append(early, s)
		} else {
			late = append(late, s)
		}
	}
	if LossRate(early) < 5*LossRate(late) {
		t.Errorf("handover loss %v not elevated vs steady %v", LossRate(early), LossRate(late))
	}
}

func TestSplitBySlotPartition(t *testing.T) {
	p, cons := buildPath(t, 8)
	start := scheduler.EpochStart(cons.Epoch.Add(5 * time.Minute)).Add(3 * time.Second)
	samples, err := p.Trace(start, time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	windows := SplitBySlot(samples)
	total := 0
	for _, w := range windows {
		total += len(w)
		slot := scheduler.SlotIndex(w[0].T)
		for _, s := range w {
			if scheduler.SlotIndex(s.T) != slot {
				t.Fatal("window mixes slots")
			}
		}
	}
	if total != len(samples) {
		t.Errorf("windows cover %d of %d samples", total, len(samples))
	}
}

func TestTraceInvalidInterval(t *testing.T) {
	p, _ := buildPath(t, 9)
	if _, err := p.Trace(time.Now(), time.Minute, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestLossRateEmpty(t *testing.T) {
	if LossRate(nil) != 0 {
		t.Error("empty loss rate")
	}
}

func TestRTTRespectsPropagationFloor(t *testing.T) {
	// No delivered RTT can be below the physical propagation floor:
	// 2 x (shortest possible up + down legs) / c. Use the generous
	// bound of 2 x 2 x 550 km (satellite directly overhead both ends).
	p, cons := buildPath(t, 10)
	start := cons.Epoch.Add(15 * time.Minute)
	samples, err := p.Trace(start, time.Minute, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	floor := 2 * 2 * 550 / 299792.458 * 1000 // ms
	for _, s := range samples {
		if s.Lost {
			continue
		}
		if s.RTTms < floor {
			t.Fatalf("RTT %v ms below the propagation floor %v", s.RTTms, floor)
		}
	}
}

func TestTraceDeterministicWithSeed(t *testing.T) {
	p1, cons := buildPath(t, 11)
	start := cons.Epoch.Add(5 * time.Minute)
	a, err := p1.Trace(start, 30*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := buildPath(t, 11)
	b, err := p2.Trace(start, 30*time.Second, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].RTTms != b[i].RTTms || a[i].Lost != b[i].Lost {
			t.Fatalf("sample %d differs between identically seeded paths", i)
		}
	}
}

// LossRate returns the fraction of lost samples.
func LossRate(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	lost := 0
	for _, s := range samples {
		if s.Lost {
			lost++
		}
	}
	return float64(lost) / float64(len(samples))
}
