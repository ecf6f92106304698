package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/constellation"
	"repro/internal/core"
	"repro/internal/dtw"
	"repro/internal/experiments"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/obstruction"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/scheduler"
)

// campaign is the ident-e2e and fleet-oracle workload: one campaign
// window, re-run from a freshly built environment in every unit.
type campaign struct {
	spec   *scenario.Spec
	oracle bool
	start  time.Time
	slots  int
	// svc ranks every identified slot (ident-e2e); nil ranks with the
	// most-populated-cluster baseline instead (fleet-oracle).
	svc *predict.Service
	sc  *predict.Scratch
	// minIdentAcc is the identification accuracy floor.
	minIdentAcc float64
}

// identSpec is the paper's setting: the full first-generation
// constellation (~40 satellites in view) over the four study sites.
func identSpec(seed int64) *scenario.Spec {
	return &scenario.Spec{
		Version: scenario.SpecVersion, Name: "ident-e2e", Seed: seed,
		Constellation: scenario.ConstellationSpec{Preset: "starlink-full"},
		Terminals:     scenario.TerminalsSpec{Preset: "study"},
		Campaign:      scenario.CampaignSpec{Slots: 1, Workers: 1, SnapshotWorkers: 1},
	}
}

// fleetSpec scatters terminals over the inhabited latitudes under the
// medium constellation. The scheduler keeps its default gateways at
// the study points of presence, so the bent-pipe constraint leaves
// most of the world's terminals unserved: the work is visibility
// queries, not candidate scoring.
func fleetSpec(seed int64, terminals int) *scenario.Spec {
	return &scenario.Spec{
		Version: scenario.SpecVersion, Name: "fleet-oracle", Seed: seed,
		Constellation: scenario.ConstellationSpec{Preset: "starlink-medium"},
		Terminals: scenario.TerminalsSpec{Random: []scenario.RandomSpec{{
			Prefix: "fleet", Count: terminals,
			Region: scenario.RegionSpec{LatMinDeg: 20, LatMaxDeg: 60, LonMinDeg: -180, LonMaxDeg: 180},
		}}},
		Campaign: scenario.CampaignSpec{Slots: 1, Oracle: true, Workers: 1, SnapshotWorkers: 1},
	}
}

// setupIdent builds the paper environment and trains the §6 forest
// (quick-model configuration, one worker) on an oracle window that
// precedes the timed window.
func setupIdent(seed int64, short bool) (instance, error) {
	trainSlots, slots := 600, 200
	if short {
		trainSlots, slots = 60, 6
	}
	spec := identSpec(seed)
	b, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		return nil, err
	}
	cfg := b.CampaignConfig()
	cfg.Slots = trainSlots
	cfg.Oracle = true
	db := core.NewDatasetBuilder()
	if _, err := core.RunCampaignStream(context.Background(), cfg, func(rec core.SlotRecord) error {
		return db.Add(rec.Observation)
	}); err != nil {
		return nil, fmt.Errorf("training window: %w", err)
	}
	d, err := db.Finalize()
	if err != nil {
		return nil, err
	}
	mcfg := experiments.QuickModelConfig(seed)
	mcfg.Workers = 1
	model, err := core.TrainModel(d, mcfg)
	if err != nil {
		return nil, fmt.Errorf("train forest: %w", err)
	}
	svc, err := predict.NewService(predict.Config{Workers: 1, Synchronous: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	if err := svc.SetModel(model.Forest); err != nil {
		return nil, err
	}
	return &campaign{
		spec:        spec,
		start:       b.Env.Start().Add(time.Duration(trainSlots) * scheduler.Period),
		slots:       slots,
		svc:         svc,
		sc:          predict.NewScratch(),
		minIdentAcc: 0.99,
	}, nil
}

// setupFleet builds the fleet environment and places its terminals.
func setupFleet(seed int64, short bool) (instance, error) {
	terminals, slots := 10000, 5
	if short {
		terminals, slots = 400, 3
	}
	spec := fleetSpec(seed, terminals)
	b, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return &campaign{spec: spec, oracle: true, start: b.Env.Start(), slots: slots, minIdentAcc: 1}, nil
}

func (c *campaign) close() error { return nil }

// accumulators are the §5 stream analyses every record feeds.
type accumulators struct {
	aoe    *core.AOEAccumulator
	az     *core.AzimuthAccumulator
	launch *core.LaunchAccumulator
	sunlit *core.SunlitAccumulator
}

func newAccumulators() *accumulators {
	return &accumulators{
		aoe:    core.NewAOEAccumulator(27),
		az:     core.NewAzimuthAccumulator(27),
		launch: core.NewLaunchAccumulator("New York"),
		sunlit: core.NewSunlitAccumulator(27),
	}
}

func (a *accumulators) add(o core.Observation) error {
	for _, c := range []core.ObservationConsumer{a.aoe, a.az, a.launch, a.sunlit} {
		if err := c.Add(o); err != nil {
			return err
		}
	}
	return nil
}

// unitState is one unit's running tallies.
type unitState struct {
	u                          *unitOut
	acc                        *accumulators
	attempted, correct, failed int
	labeled, hits, unusable    int
	sats                       []features.Sat
	slot                       features.Slot
	vec                        []float64
	probs                      []float64
	idx                        []int
}

func newUnitState() *unitState {
	return &unitState{
		u:     &unitOut{},
		acc:   newAccumulators(),
		vec:   make([]float64, features.VectorLen),
		probs: make([]float64, features.NumClusters),
		idx:   make([]int, features.NumClusters),
	}
}

// consume folds one campaign record into the unit: the record's
// outputs, its top-1 ranking and the §5 accumulators. The untraced
// run ranks through predict.Service.Rank; the traced replay makes the
// calls Rank makes (ClusterInto, VectorInto, RankClassesInto) itself,
// one span each.
func (c *campaign) consume(st *unitState, rec *core.SlotRecord, tr *tracer) error {
	st.u.records++
	top := int64(-1)
	if rec.ChosenIdx >= 0 {
		s := tr.start(lAccumulate, 0)
		st.labeled++
		st.sats = st.sats[:0]
		for _, a := range rec.Available {
			st.sats = append(st.sats, featureSat(a))
		}
		if err := features.ClusterInto(&st.slot, st.sats); err != nil {
			return err
		}
		label := st.slot.Keys[rec.ChosenIdx].Index()
		if c.oracle && rec.IdentifiedID == rec.TrueID {
			st.correct++
		}
		if err := st.acc.add(rec.Observation); err != nil {
			return err
		}
		tr.stop(s)

		switch {
		case c.svc == nil:
			s = tr.start(lAccumulate, 0)
			top = int64(baselineTop(&st.slot))
			tr.stop(s)
		case tr == nil:
			if _, err := c.svc.Rank(rec.LocalHour, st.sats, c.sc); err != nil {
				return err
			}
			top = int64(c.sc.Ranked()[0])
		default:
			s = tr.start(lClusterVector, 0)
			err := features.ClusterInto(&st.slot, st.sats)
			if err == nil {
				err = st.slot.VectorInto(rec.LocalHour, st.vec)
			}
			tr.stop(s)
			if err != nil {
				return err
			}
			f, _ := c.svc.Model()
			s = tr.start(lRank, 0)
			err = ml.ForestRanker{Forest: f}.RankClassesInto(st.vec, st.probs, st.idx)
			tr.stop(s)
			if err != nil {
				return err
			}
			top = int64(st.idx[0])
		}
		if top == int64(label) {
			st.hits++
		}
	} else {
		st.unusable++
	}
	st.u.out = append(st.u.out, int64(rec.IdentifiedID), int64(rec.ChosenIdx), top)
	return nil
}

// finish finalizes the accumulators and the unit's quality figures.
func (c *campaign) finish(st *unitState, tr *tracer) error {
	s := tr.start(lAccumulate, 0)
	aoe, err := st.acc.aoe.Finalize()
	if err == nil {
		_, err = st.acc.az.Finalize()
	}
	if err == nil {
		_, err = st.acc.launch.Finalize()
	}
	if err == nil {
		_, err = st.acc.sunlit.Finalize()
	}
	tr.stop(s)
	if err != nil {
		return fmt.Errorf("finalize §5 analyses: %w", err)
	}
	u := st.u
	if c.oracle {
		// Oracle labels are the scheduler's allocation by construction.
		st.attempted = st.labeled
	}
	if st.attempted > 0 {
		u.identAcc = float64(st.correct) / float64(st.attempted)
	}
	if st.labeled > 0 {
		u.top1 = float64(st.hits) / float64(st.labeled)
	}
	u.failedShare = float64(st.unusable) / float64(u.records)
	u.counts = map[string]float64{}
	u.out = append(u.out, int64(st.attempted), int64(st.correct), int64(st.failed))
	u.detail = aoe
	return nil
}

func (c *campaign) check(u *unitOut) error {
	if u.identAcc < c.minIdentAcc {
		return fmt.Errorf("identification accuracy %.4f below %.2f", u.identAcc, c.minIdentAcc)
	}
	// Figure 4 shape: chosen satellites sit higher than available ones,
	// per terminal on average and in the share above 45°.
	aoe := u.detail.(*core.AOEAnalysis)
	if !(aoe.MedianLiftDeg > 0) || !(aoe.HighBandChosenFrac > aoe.HighBandAvailableFrac) {
		return fmt.Errorf("AOE shape: median lift %.2f°, ≥45° band chosen %.3f vs available %.3f",
			aoe.MedianLiftDeg, aoe.HighBandChosenFrac, aoe.HighBandAvailableFrac)
	}
	return nil
}

// unit runs the campaign window on a fresh environment: the campaign
// engine when tr is nil, otherwise the traced replay.
func (c *campaign) unit(m *meter, tr *tracer) (*unitOut, error) {
	b, err := c.spec.Build(scenario.BuildOptions{})
	if err != nil {
		return nil, err
	}
	st := newUnitState()
	if tr != nil {
		if err := c.replay(b, st, m, tr); err != nil {
			return nil, err
		}
	} else {
		cfg := b.CampaignConfig()
		cfg.Start = c.start
		cfg.Slots = c.slots
		cfg.Oracle = c.oracle
		nTerms := len(b.Env.Terminals)
		m.start()
		// A slot step is timed in process CPU time: the engine runs on
		// one goroutine with no I/O, so on an uncontended core its wall
		// time is its CPU time, and CPU time leaves out the time other
		// tenants of a shared host hold the core.
		last := m.begin.cpu
		stats, err := core.RunCampaignStream(context.Background(), cfg, func(rec core.SlotRecord) error {
			if err := c.consume(st, &rec, nil); err != nil {
				return err
			}
			if st.u.records%nTerms == 0 {
				now := processCPU()
				st.u.lat = append(st.u.lat, now-last)
				last = now
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !c.oracle {
			st.attempted, st.correct, st.failed = stats.Attempted, stats.Correct, stats.Failed
		}
		err = c.finish(st, nil)
		m.stop()
		if err != nil {
			return nil, err
		}
	}
	st.u.keep = []any{st.acc, b}
	return st.u, nil
}

// replay drives the campaign window through the public calls the
// serial campaign engine makes, in the engine's order, with a span
// around each call into a layer. It must reproduce the engine's
// records exactly; runTraced compares them.
func (c *campaign) replay(b *scenario.Built, st *unitState, m *meter, tr *tracer) error {
	env := b.Env
	ident := env.Ident
	if ident.UseNaiveMatcher || ident.DisablePruning || env.DisableIndex {
		return fmt.Errorf("replay covers the default identification path only")
	}
	terms := env.Sched.Terminals()
	resetEvery := b.ResetEvery
	if resetEvery == 0 {
		resetEvery = 40 // the engine's default
	}
	var maps []*obstruction.Map
	if !c.oracle {
		maps = make([]*obstruction.Map, len(terms))
		for i := range maps {
			maps[i] = obstruction.New()
		}
	}
	matcher := &dtw.Matcher{}
	var fov []constellation.Visible
	var propagated, unserved, queries, visible, idents, cands, samples, tracks, trackPx int

	m.start()
	start := scheduler.EpochStart(c.start)
	for slot := 0; slot < c.slots; slot++ {
		tr.setRequest(slot)
		slotStart := start.Add(time.Duration(slot) * scheduler.Period)
		s := tr.start(lSnapshot, 0)
		shared := env.Snaps.Acquire(env.Cons, slotStart)
		tr.stop(s)
		propagated += len(shared.States) + shared.Skipped()
		s = tr.start(lIndex, 0)
		ix := shared.Index()
		tr.stop(s)
		s = tr.start(lAllocate, 0)
		allocs := env.Sched.Allocate(slotStart)
		tr.stop(s)

		if !c.oracle && slot > 0 && slot%resetEvery == 0 {
			for _, mp := range maps {
				mp.Reset()
			}
		}
		for ti, term := range terms {
			alloc := allocs[ti]
			if alloc.Terminal != term.Name {
				return fmt.Errorf("allocation %d is for %s, not %s", ti, alloc.Terminal, term.Name)
			}
			if alloc.SatID == 0 {
				unserved++
			}
			s = tr.start(lVisible, 0)
			fov = ix.AppendObserveFrom(fov[:0], term.Location, ident.MinElevationDeg)
			tr.stop(s)
			queries++
			visible += len(fov)
			s = tr.start(lRecord, 0)
			rec := core.SlotRecord{
				Observation: core.Observation{
					Terminal:  term.Name,
					SlotStart: slotStart,
					LocalHour: core.LocalHour(term.VantagePoint, slotStart),
					Available: availableSet(fov, slotStart),
					ChosenIdx: -1,
				},
				TrueID: alloc.SatID,
			}
			tr.stop(s)

			switch {
			case alloc.SatID == 0:
				rec.SkipReason = "no satellite allocated"
			case c.oracle:
				rec.IdentifiedID = alloc.SatID
				rec.ChosenIdx = indexOf(rec.Available, alloc.SatID)
			default:
				mp := maps[ti]
				s = tr.start(lPaint, 0)
				prev := mp.Clone()
				err := ident.PaintServingTrack(mp, alloc.SatID, term.VantagePoint, slotStart)
				tr.stop(s)
				if err != nil {
					rec.SkipReason = err.Error()
					break
				}
				s = tr.start(lXORTrack, 0)
				track := obstruction.XOR(prev, mp).Track()
				observed := dtw.FromPolarTrack(track)
				tr.stop(s)
				if len(track) < 2 {
					rec.SkipReason = "XOR diff too short"
					st.failed++
					break
				}
				tracks++
				trackPx += len(track)
				s = tr.start(lCandidates, 0)
				cs, _ := ident.CandidateTracksFromSnapshot(shared.States, term.VantagePoint, slotStart)
				tr.stop(s)
				if len(cs) == 0 {
					rec.SkipReason = "no candidates"
					st.failed++
					break
				}
				idents++
				cands += len(cs)
				for _, cd := range cs {
					samples += len(cd.Track)
				}
				s = tr.start(lMatch, 0)
				best, _, err := matcher.Identify(observed, cs)
				tr.stop(s)
				if err != nil {
					rec.SkipReason = err.Error()
					st.failed++
					break
				}
				st.attempted++
				rec.IdentifiedID = best.ID
				if best.ID == alloc.SatID {
					st.correct++
				}
				rec.ChosenIdx = indexOf(rec.Available, best.ID)
			}
			if err := c.consume(st, &rec, tr); err != nil {
				return err
			}
		}
		s = tr.start(lRelease, 0)
		shared.Release()
		tr.stop(s)
	}
	err := c.finish(st, tr)
	m.stop()
	if err != nil {
		return err
	}

	ms := matcher.Stats
	cnt := st.u.counts
	cnt["constellation.sats_propagated"] = float64(propagated) / float64(c.slots)
	cnt["constellation.visible_per_query"] = ratio(visible, queries)
	cnt["scheduler.unserved_share"] = ratio(unserved, queries)
	cnt["core.candidates_per_slot"] = ratio(cands, idents)
	cnt["core.candidate_samples"] = ratio(samples, idents)
	cnt["obstruction.track_px"] = ratio(trackPx, tracks)
	cnt["dtw.cells"] = ratio(int(ms.Cells), idents)
	cnt["dtw.pruned_share"] = ratio(ms.KimPruned+ms.EnvelopePruned, ms.Candidates)
	return nil
}

// featureSat is the §6 featurizer's view of one available satellite.
func featureSat(a core.SatObs) features.Sat {
	return features.Sat{AzimuthDeg: a.AzimuthDeg, ElevationDeg: a.ElevationDeg, AgeYears: a.AgeYears, Sunlit: a.Sunlit}
}

// baselineTop is the most-populated cluster, lowest index on ties: the
// first entry of features.BaselineRanking, without its allocation.
func baselineTop(sl *features.Slot) int {
	best := 0
	for i, n := range sl.Counts {
		if n > sl.Counts[best] {
			best = i
		}
	}
	return best
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// availableSet is the record's public available set, built from the
// index query exactly as the campaign engine builds it.
func availableSet(fov []constellation.Visible, t time.Time) []core.SatObs {
	out := make([]core.SatObs, 0, len(fov))
	for _, v := range fov {
		out = append(out, core.SatObs{
			ID:           v.Sat.ID,
			ElevationDeg: v.Look.ElevationDeg,
			AzimuthDeg:   v.Look.AzimuthDeg,
			RangeKm:      v.Look.RangeKm,
			AgeYears:     v.Sat.AgeYears(t),
			LaunchDate:   v.Sat.Launch,
			Sunlit:       v.Sunlit,
		})
	}
	return out
}

func indexOf(avail []core.SatObs, id int) int {
	for i, a := range avail {
		if a.ID == id {
			return i
		}
	}
	return -1
}
