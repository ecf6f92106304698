package scenario

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/scheduler"
	"repro/internal/telemetry"
)

var (
	smallOnce  sync.Once
	smallBuilt *Built
	smallErr   error
)

// small is the shared starlink-small, seed 3 scenario of the §8 tests.
func small(t *testing.T) *Built {
	t.Helper()
	smallOnce.Do(func() {
		var spec *Spec
		if spec, smallErr = Starlink("small", 3); smallErr == nil {
			smallBuilt, smallErr = spec.Build(BuildOptions{})
		}
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallBuilt
}

// TestSiblingsKeepParentEnvironment: a §8 sibling is its parent's
// environment with only the ablated field changed, also when the parent
// is not a Starlink density. A OneWeb parent's siblings keep its
// constellation, terminals, masks, scheduler switches, planted weights,
// worker pools and context, stay out of its registry and decision
// ring, and leave the parent's spec as it was.
func TestSiblingsKeepParentEnvironment(t *testing.T) {
	spec, err := LoadPreset("oneweb-star")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	spec.Campaign.Workers, spec.Campaign.SnapshotWorkers = 1, 2
	parent, err := spec.Build(BuildOptions{Telemetry: reg, TraceDecisions: 16, DisableIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parent.Env.Ctx = ctx
	if parent.Env.Trace() == nil || parent.Env.Telemetry == nil {
		t.Fatal("parent built without registry or trace ring")
	}
	planted, ok := spec.PlantedWeights()
	if !ok {
		t.Fatal("oneweb-star plants no weights")
	}
	noLoad := planted
	noLoad.Load = 0
	det := noLoad
	det.NoiseStd, det.Charge = 1e-9, 0
	var southern []string
	for _, vp := range geo.SouthernVantagePoints() {
		southern = append(southern, vp.Name)
	}
	ps := parent.Spec.Scheduler
	for _, tc := range []struct {
		name      string
		edit      func(*Spec)
		weights   scheduler.Weights
		terminals []string // nil: the parent's terminals
	}{
		{"southern", southernSites, planted, southern},
		{"no-gso", withoutGSO, planted, nil},
		{"no-load", withoutLoad, noLoad, nil},
		{"deterministic", deterministic, det, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sib, err := parent.sibling(tc.edit)
			if err != nil {
				t.Fatal(err)
			}
			env := sib.Env
			if env.Cons.Fingerprint() != parent.Env.Cons.Fingerprint() {
				t.Errorf("constellation fingerprint differs from the parent's (%d vs %d sats)", env.Cons.Len(), parent.Env.Cons.Len())
			}
			if tc.terminals == nil {
				if !reflect.DeepEqual(env.Terminals, parent.Env.Terminals) {
					t.Error("terminals or masks differ from the parent's")
				}
			} else {
				var names []string
				for _, term := range env.Terminals {
					names = append(names, term.Name)
				}
				if !reflect.DeepEqual(names, tc.terminals) {
					t.Errorf("terminals %v, want %v", names, tc.terminals)
				}
			}
			sc := sib.Spec.Scheduler
			if !sc.DisableGSO || !sc.DisableGroundStations || !sc.DisableBattery || env.Sched.Fleet() != nil {
				t.Errorf("scheduler switches lost: gso off %v, ground stations off %v, battery off %v (fleet %v)",
					sc.DisableGSO, sc.DisableGroundStations, sc.DisableBattery, env.Sched.Fleet() != nil)
			}
			if sc.MinElevationDeg != ps.MinElevationDeg || sc.GSMinElevationDeg != ps.GSMinElevationDeg ||
				env.Ident.MinElevationDeg != parent.Env.Ident.MinElevationDeg || env.Seed != parent.Env.Seed {
				t.Error("elevation masks or seed differ from the parent's")
			}
			if got, _ := sib.Spec.PlantedWeights(); got != tc.weights {
				t.Errorf("weights %+v, want %+v", got, tc.weights)
			}
			if env.Workers != parent.Env.Workers || env.DisableIndex != parent.Env.DisableIndex || sib.Spec.Campaign.SnapshotWorkers != spec.Campaign.SnapshotWorkers {
				t.Error("worker pools or index setting differ from the parent's")
			}
			if env.Ctx != parent.Env.Ctx {
				t.Error("sibling does not share the parent's context")
			}
			if env.Telemetry != nil || env.Metrics != nil || env.Trace() != nil {
				t.Error("sibling shares the parent's registry or trace ring")
			}
		})
	}
	if w, _ := parent.Spec.PlantedWeights(); w != planted || parent.Spec.Terminals.Preset != "study" {
		t.Errorf("sibling edits reached the parent's spec: weights %+v, terminals %+v", w, parent.Spec.Terminals)
	}
}

// TestLoadSiblingUsesEffectiveWeights: a parent on the default
// weights (no planted weights) gets a no-load sibling on the defaults
// minus Load, not on all-zero weights.
func TestLoadSiblingUsesEffectiveWeights(t *testing.T) {
	sib, err := small(t).sibling(withoutLoad)
	if err != nil {
		t.Fatal(err)
	}
	want := scheduler.DefaultWeights()
	want.Load = 0
	if got, ok := sib.Spec.PlantedWeights(); !ok || got != want {
		t.Errorf("no-load sibling weights %+v (planted %v), want %+v", got, ok, want)
	}
}

// TestExtensionSlotCounts: each §8 extension runs the slot count it is
// given, one slot included, and rejects a count below one without
// running anything. The parent's campaign counter sees each run; the
// siblings count into their own registries.
func TestExtensionSlotCounts(t *testing.T) {
	spec, err := Starlink("small", 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	b, err := spec.Build(BuildOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(slots int) error
	}{
		{"hemisphere", func(n int) error { _, err := b.HemisphereComparison(n); return err }},
		{"GSO ablation", func(n int) error {
			res, err := b.GSOAblation(n)
			if err == nil && res.Slots != n {
				return fmt.Errorf("reports %d slots", res.Slots)
			}
			return err
		}},
		{"load sensitivity", func(n int) error { _, err := b.LoadSensitivity(n); return err }},
	} {
		for _, slots := range []int{0, 1} {
			before := reg.Snapshot().Counters["campaign_slots_total"]
			err := tc.run(slots)
			ran := reg.Snapshot().Counters["campaign_slots_total"] - before
			switch {
			case slots == 0 && err == nil:
				t.Errorf("%s: 0 slots accepted", tc.name)
			case slots > 0 && err != nil:
				t.Errorf("%s: %d slots: %v", tc.name, slots, err)
			}
			if ran != int64(slots) {
				t.Errorf("%s: asked for %d slots, ran %d", tc.name, slots, ran)
			}
		}
	}
}

func TestHemisphereComparison(t *testing.T) {
	res, err := small(t).HemisphereComparison(150)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Northern) == 0 || len(res.Southern) == 0 {
		t.Fatalf("sites: %d northern, %d southern", len(res.Northern), len(res.Southern))
	}
	// Relative to what the sky offers, unobstructed northern (>40N)
	// sites skew their picks north (New York's NW tree mask suppresses
	// its skew, as the paper found for Ithaca).
	for _, s := range res.Northern {
		if s.Terminal == "New York" {
			continue
		}
		if s.NorthSkew() <= 0 {
			t.Errorf("%s (lat %.0f): north skew %.2f (picked %.2f vs available %.2f), want positive",
				s.Terminal, s.LatDeg, s.NorthSkew(), s.NorthFrac, s.AvailNorthFrac)
		}
	}
	// The mid-latitude southern site mirrors the preference: the GSO
	// belt is in its northern sky, so picks skew south. (Punta Arenas,
	// at the 53°-shell coverage edge, is dominated by the elevation
	// preference — nearly all high-elevation satellites there culminate
	// north of the site — so it carries no directional assertion; the
	// equatorial site sees the belt near zenith and shows no skew.)
	for _, s := range res.Southern {
		switch s.Terminal {
		case "Sydney":
			if s.NorthSkew() >= 0 {
				t.Errorf("Sydney: north skew %.2f (picked %.2f vs available %.2f), want negative (belt is north)",
					s.NorthSkew(), s.NorthFrac, s.AvailNorthFrac)
			}
		case "Quito":
			if s.NorthSkew() > 0.15 || s.NorthSkew() < -0.15 {
				t.Errorf("Quito: |north skew| = %.2f, want ~0 at the equator", s.NorthSkew())
			}
		}
	}
}

func TestGSOAblation(t *testing.T) {
	res, err := small(t).GSOAblation(120)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots == 0 {
		t.Fatal("no slots analyzed")
	}
	// Removing the exclusion zone must not increase the north skew.
	if res.NorthFracWithoutGSO > res.NorthFracWithGSO {
		t.Errorf("north fraction rose without GSO: %.2f -> %.2f",
			res.NorthFracWithGSO, res.NorthFracWithoutGSO)
	}
}

func TestLoadSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("model training is slow")
	}
	res, err := small(t).LoadSensitivity(250)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("no rows")
	}
	// The paper's hypothesis: the unobservable terms bound model
	// accuracy. Removing load alone may be inside evaluation noise, but
	// the fully deterministic scheduler must be clearly easier to
	// predict.
	if res.WithoutHiddenLoad < res.WithHiddenLoad-0.05 {
		t.Errorf("accuracy without hidden load (%.2f) below with (%.2f)",
			res.WithoutHiddenLoad, res.WithHiddenLoad)
	}
	if res.Deterministic < res.WithHiddenLoad-0.02 {
		t.Errorf("deterministic-scheduler top-5 (%.2f) below default (%.2f)",
			res.Deterministic, res.WithHiddenLoad)
	}
	// Top-1 is where determinism must show: identical features now map
	// to one deterministic choice.
	if res.DeterministicTop1 < res.WithHiddenLoadTop1+0.03 {
		t.Errorf("deterministic-scheduler top-1 (%.2f) not clearly above default (%.2f)",
			res.DeterministicTop1, res.WithHiddenLoadTop1)
	}
}
