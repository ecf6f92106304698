package core_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/obstruction"
	"repro/internal/scenario"
	"repro/internal/scheduler"
)

// simDish drives the real scheduler and paints serving tracks the way
// dish firmware does, exposing only the MapFetcher surface — a live
// capture's view of the world, with the ground truth hidden.
type simDish struct {
	env  *experiments.Env
	term scheduler.Terminal
	m    *obstruction.Map
	next time.Time
}

func (d *simDish) Reset() error {
	d.m = obstruction.New()
	return nil
}

func (d *simDish) ObstructionMap() (*obstruction.Map, error) {
	allocs := d.env.Sched.Allocate(d.next)
	for _, a := range allocs {
		if a.Terminal == d.term.Name && a.SatID != 0 {
			if err := d.env.Ident.PaintServingTrack(d.m, a.SatID, d.term.VantagePoint, d.next); err != nil {
				return nil, err
			}
		}
	}
	d.next = d.next.Add(scheduler.Period)
	return d.m.Clone(), nil
}

// liveEnv builds the starlink-small environment (seed 11) with one
// terminal, the study's Iowa site.
func liveEnv(t *testing.T) *experiments.Env {
	t.Helper()
	spec, err := scenario.Starlink("small", 11)
	if err != nil {
		t.Fatal(err)
	}
	utcOffset := -6
	spec.Terminals = scenario.TerminalsSpec{Sites: []scenario.SiteSpec{{
		Name: "Iowa", LatDeg: 41.661, LonDeg: -91.530, AltKm: 0.20,
		UTCOffsetHours: &utcOffset, PoP: "chicago",
	}}}
	built, err := spec.Build(scenario.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return built.Env
}

// TestLiveMatchesCampaign runs a live capture against a simulated dish
// and checks it against the campaign engine over the same slots:
// identical available sets always, and identical identifications
// wherever the campaign attempted one. The live path has no ground
// truth, so TrueID stays 0 and skip reasons differ only where the
// campaign's reason depends on the hidden allocation.
func TestLiveMatchesCampaign(t *testing.T) {
	const slots = 20
	const resetEvery = 8

	// Ground-truth reference: the campaign engine on a fresh env.
	envB := liveEnv(t)
	batch, err := core.RunCampaign(context.Background(), core.CampaignConfig{
		Scheduler:  envB.Sched,
		Identifier: envB.Ident,
		Start:      envB.Start(),
		Slots:      slots,
		ResetEvery: resetEvery,
		Workers:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Records) != slots {
		t.Fatalf("campaign produced %d records, want %d", len(batch.Records), slots)
	}

	// Live capture against an identical fresh env, seen only through
	// the dish API.
	envL := liveEnv(t)
	term := envL.Terminals[0]
	dish := &simDish{env: envL, term: term, m: obstruction.New(), next: envL.Start()}
	live := &core.Live{
		Dish:       dish,
		Ident:      envL.Ident,
		Terminal:   term,
		Start:      envL.Start(),
		Slots:      slots,
		ResetEvery: resetEvery,
		WaitSlot:   func(ctx context.Context, t time.Time) error { return nil },
	}
	var got []core.SlotRecord
	if err := live.Stream(context.Background(), func(rec core.SlotRecord) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != slots {
		t.Fatalf("live capture produced %d records, want %d", len(got), slots)
	}

	attempted := 0
	for i, live := range got {
		ref := batch.Records[i]
		if live.TrueID != 0 {
			t.Fatalf("slot %d: live capture leaked ground truth (TrueID=%d)", i, live.TrueID)
		}
		if !live.SlotStart.Equal(ref.SlotStart) || live.Terminal != ref.Terminal || live.LocalHour != ref.LocalHour {
			t.Fatalf("slot %d: live slot metadata diverges", i)
		}
		if !reflect.DeepEqual(live.Available, ref.Available) {
			t.Fatalf("slot %d: live available set diverges from campaign", i)
		}
		if ref.IdentifiedID != 0 {
			attempted++
			if live.IdentifiedID != ref.IdentifiedID {
				t.Errorf("slot %d: live identified %d, campaign %d", i, live.IdentifiedID, ref.IdentifiedID)
			}
			if live.Margin != ref.Margin {
				t.Errorf("slot %d: live margin %g, campaign %g", i, live.Margin, ref.Margin)
			}
			if live.ChosenIdx != ref.ChosenIdx {
				t.Errorf("slot %d: live chosen index %d, campaign %d", i, live.ChosenIdx, ref.ChosenIdx)
			}
		}
	}
	if attempted == 0 {
		t.Error("campaign attempted no identifications; the comparison is vacuous")
	}
}

// TestLiveValidation: a misconfigured live capture fails fast, before
// it emits anything.
func TestLiveValidation(t *testing.T) {
	dish := &simDish{}
	ident := &core.Identifier{}
	term := scheduler.Terminal{VantagePoint: geo.StudyVantagePoints()[0]}
	cases := map[string]*core.Live{
		"nil dish":      {Ident: ident, Terminal: term, Slots: 1},
		"nil ident":     {Dish: dish, Terminal: term, Slots: 1},
		"no name":       {Dish: dish, Ident: ident, Slots: 1},
		"no slots":      {Dish: dish, Ident: ident, Terminal: term},
		"negative slot": {Dish: dish, Ident: ident, Terminal: term, Slots: -3},
	}
	for name, live := range cases {
		emitted := 0
		err := live.Stream(context.Background(), func(core.SlotRecord) error {
			emitted++
			return nil
		})
		if err == nil || emitted != 0 {
			t.Errorf("%s: err = %v after %d records, want an error before any", name, err, emitted)
		}
	}
}
