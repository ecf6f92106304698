package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/scheduler"
)

// topK is the ranking head the online service serves and scores.
const topK = 5

// online is the online-learn workload: predictd's service behind the
// dishrpc server on loopback, driven by one closed-loop client that
// replays the drift experiment's record stream. Each unit installs a
// fresh service, so every unit learns the same stream from scratch.
type online struct {
	stream []streamRec
	flipAt int // index of the first post-flip record
	// unserved counts campaign records without a served satellite; they
	// never reach the stream.
	unserved, generated int

	cancel context.CancelFunc
	served chan error // Serve's return value
	client *predict.Client
	seed   int64

	cur atomic.Pointer[predict.Service]
	// tr and call carry the traced unit's tracer and the client's open
	// call span to the server-side handler.
	tr   atomic.Pointer[tracer]
	call atomic.Int32
	// handleSpan is the id of the last handler span and paramBytes
	// sums the request payloads (traced units).
	handleSpan atomic.Int32
	paramBytes atomic.Int64
	// rank is the traced topk replay's scratch; only the connection's
	// handler goroutine uses it.
	rank rankScratch
}

// rankScratch holds the buffers of one Service.Rank call.
type rankScratch struct {
	sats  []features.Sat
	slot  features.Slot
	vec   []float64
	probs []float64
	idx   []int
}

// streamRec is one served slot of the stream, as the client sends it.
type streamRec struct {
	hour      int
	sats      []predict.SatParam
	chosenIdx int
	// baselineHit records whether the most-populated cluster holds the
	// chosen satellite.
	baselineHit bool
}

// onlineSpec is the drift experiment's environment: the small
// constellation over the study sites, oracle labels.
func onlineSpec(seed int64, w *scheduler.Weights) *scenario.Spec {
	s := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "online-learn", Seed: seed,
		Constellation: scenario.ConstellationSpec{Preset: "starlink-small"},
		Terminals:     scenario.TerminalsSpec{Preset: "study"},
		Campaign:      scenario.CampaignSpec{Slots: 1, Oracle: true, Workers: 1, SnapshotWorkers: 1},
	}
	if w != nil {
		s.Scheduler.Weights = &scenario.WeightsSpec{
			Elevation: w.Elevation, GSOClearance: w.GSOClearance, Recency: w.Recency,
			Sunlit: w.Sunlit, Load: w.Load, Charge: w.Charge, NoiseStd: w.NoiseStd,
		}
	}
	return s
}

// setupOnline pre-generates the drift stream — default weights, then
// scenario.FlippedWeights from the midpoint on — and starts the
// server on loopback with one client connected.
func setupOnline(seed int64, short bool) (instance, error) {
	slots := 1000
	if short {
		slots = 360
	}
	flip := slots / 2
	o := &online{seed: seed}
	pre, err := onlineSpec(seed, nil).Build(scenario.BuildOptions{})
	if err != nil {
		return nil, err
	}
	flipped := scenario.FlippedWeights()
	post, err := onlineSpec(seed, &flipped).Build(scenario.BuildOptions{})
	if err != nil {
		return nil, err
	}
	var slot features.Slot
	var sats []features.Sat
	collect := func(rec core.SlotRecord) error {
		o.generated++
		if rec.ChosenIdx < 0 {
			o.unserved++
			return nil
		}
		r := streamRec{hour: rec.LocalHour, chosenIdx: rec.ChosenIdx, sats: make([]predict.SatParam, len(rec.Available))}
		sats = sats[:0]
		for i, a := range rec.Available {
			r.sats[i] = predict.SatParam{AzimuthDeg: a.AzimuthDeg, ElevationDeg: a.ElevationDeg, AgeYears: a.AgeYears, Sunlit: a.Sunlit}
			sats = append(sats, featureSat(a))
		}
		if err := features.ClusterInto(&slot, sats); err != nil {
			return err
		}
		r.baselineHit = baselineTop(&slot) == slot.Keys[rec.ChosenIdx].Index()
		o.stream = append(o.stream, r)
		return nil
	}
	// Both phases share one constellation and one clock; the second
	// starts exactly where the first ends, as in scenario.RunDrift.
	cfg := pre.CampaignConfig()
	cfg.Slots = flip
	if _, err := core.RunCampaignStream(context.Background(), cfg, collect); err != nil {
		return nil, fmt.Errorf("pre-flip stream: %w", err)
	}
	o.flipAt = len(o.stream)
	cfg = post.CampaignConfig()
	cfg.Start = pre.Env.Start().Add(time.Duration(flip) * scheduler.Period)
	cfg.Slots = slots - flip
	if _, err := core.RunCampaignStream(context.Background(), cfg, collect); err != nil {
		return nil, fmt.Errorf("post-flip stream: %w", err)
	}

	o.rank = rankScratch{
		vec:   make([]float64, features.VectorLen),
		probs: make([]float64, features.NumClusters),
		idx:   make([]int, features.NumClusters),
	}
	srv, err := dishrpc.NewHandlerServer("127.0.0.1:0", o.handle)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	o.cancel, o.served = cancel, make(chan error, 1)
	go func() { o.served <- srv.Serve(ctx) }()
	o.client, err = predict.Dial(srv.Addr().String())
	if err != nil {
		o.close()
		return nil, err
	}
	return o, nil
}

// close disconnects the client and stops the server, waiting for
// Serve to return.
func (o *online) close() error {
	if o.client != nil {
		o.client.Close()
	}
	o.cancel()
	if err := <-o.served; err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// window is the service's sliding-window capacity in rows and
// accWindow its drift detector's short horizon in scored records (both
// the service defaults).
const (
	window    = 2048
	accWindow = 64
)

func newOnlineService(seed int64) (*predict.Service, error) {
	return predict.NewService(predict.Config{Window: window, AccWindow: accWindow, Synchronous: true, Workers: 1, Seed: seed, TopK: topK})
}

// handle is the server's method handler: the current unit's service.
// In a traced unit it wraps the service in a predict.handle span, and
// serves topk through the calls Service.Rank makes, one span each.
func (o *online) handle(method string, params json.RawMessage) (any, error) {
	svc := o.cur.Load()
	tr := o.tr.Load()
	if tr == nil {
		return svc.Handle(method, params)
	}
	o.paramBytes.Add(int64(len(params)))
	s := tr.start(lHandle, o.call.Load())
	defer tr.stop(s)
	o.handleSpan.Store(s)
	if method != "topk" {
		return svc.Handle(method, params)
	}
	var req predict.PredictRequest
	if err := json.Unmarshal(params, &req); err != nil {
		return nil, err
	}
	k := req.K
	if k == 0 {
		k = topK
	}
	rs := &o.rank
	rs.sats = rs.sats[:0]
	for _, p := range req.Sats {
		rs.sats = append(rs.sats, features.Sat{AzimuthDeg: p.AzimuthDeg, ElevationDeg: p.ElevationDeg, AgeYears: p.AgeYears, Sunlit: p.Sunlit})
	}
	c := tr.start(lClusterVector, s)
	err := features.ClusterInto(&rs.slot, rs.sats)
	if err == nil {
		err = rs.slot.VectorInto(req.LocalHour, rs.vec)
	}
	tr.stop(c)
	if err != nil {
		return nil, err
	}
	f, version := svc.Model()
	if f == nil {
		return nil, predict.ErrNoModel
	}
	c = tr.start(lRank, s)
	err = ml.ForestRanker{Forest: f}.RankClassesInto(rs.vec, rs.probs, rs.idx)
	tr.stop(c)
	if err != nil {
		return nil, err
	}
	res := predict.PredictResult{Clusters: make([]int, k), Probs: make([]float64, k), ModelVersion: version}
	for i := 0; i < k; i++ {
		res.Clusters[i] = rs.idx[i]
		res.Probs[i] = rs.probs[rs.idx[i]]
	}
	return res, nil
}

// onlineDetail carries the drift checks' inputs.
type onlineDetail struct {
	preScored, preHits, preBaseline int
	// driftAfterFlip reports whether any response after the flip had
	// the drift flag raised; lastPreFlipEvent is the record of the last
	// drift rising edge before the flip (-1: none).
	driftAfterFlip   bool
	lastPreFlipEvent int
}

func (o *online) check(u *unitOut) error {
	d := u.detail.(*onlineDetail)
	// A false alarm in the last short window before the flip forces the
	// refit the flip would have forced, and the flag cannot rise again
	// until the reference window has absorbed it.
	if !d.driftAfterFlip && d.lastPreFlipEvent < o.flipAt-accWindow {
		return fmt.Errorf("drift flag never raised after the flip at record %d (last earlier rise at %d)", o.flipAt, d.lastPreFlipEvent)
	}
	if d.preScored == 0 || d.preHits <= d.preBaseline {
		return fmt.Errorf("pre-flip top-1 %d/%d does not beat the most-populated-cluster baseline %d/%d",
			d.preHits, d.preScored, d.preBaseline, d.preScored)
	}
	return nil
}

// unit replays the whole stream against a fresh service: for each
// record a topk read (once the service has a model), then the observe
// write that reveals the choice.
func (o *online) unit(m *meter, tr *tracer) (*unitOut, error) {
	svc, err := newOnlineService(o.seed)
	if err != nil {
		return nil, err
	}
	o.cur.Store(svc)
	o.tr.Store(tr)
	defer o.tr.Store(nil)
	o.paramBytes.Store(0)

	u := &unitOut{lat: make([]time.Duration, 0, 2*len(o.stream))}
	d := &onlineDetail{lastPreFlipEvent: -1}
	u.detail = d
	// Traced units keep the results to size them afterwards, and the
	// handler times of observe calls to place the refit spans.
	var results []any
	var handleObserve []time.Duration
	type refitCall struct {
		span int32
		dur  time.Duration
	}
	var refitCalls []refitCall
	scored, hits, refits, fitRows, rows := 0, 0, 0, 0, 0
	var last predict.ObserveResult

	m.start()
	for i := range o.stream {
		r := &o.stream[i]
		tr.setRequest(i)
		if last.ModelVersion > 0 {
			c := tr.start(lCall, 0)
			o.call.Store(c)
			t0 := time.Now()
			top, err := o.client.TopK(r.hour, r.sats, 0)
			u.lat = append(u.lat, time.Since(t0))
			tr.stop(c)
			if err != nil {
				return nil, fmt.Errorf("topk record %d: %w", i, err)
			}
			for _, cl := range top.Clusters {
				u.out = append(u.out, int64(cl))
			}
			if tr != nil {
				results = append(results, top)
			}
		}

		c := tr.start(lCall, 0)
		o.call.Store(c)
		t0 := time.Now()
		res, err := o.client.Observe(predict.ObserveRequest{LocalHour: r.hour, Sats: r.sats, ChosenIdx: r.chosenIdx})
		u.lat = append(u.lat, time.Since(t0))
		tr.stop(c)
		if err != nil {
			return nil, fmt.Errorf("observe record %d: %w", i, err)
		}
		rows = min(rows+1, window)
		if res.Refits > last.Refits {
			refits += res.Refits - last.Refits
			fitRows += rows
		}
		if tr != nil {
			results = append(results, res)
			h := o.handleSpan.Load()
			dur := tr.duration(h)
			if res.Refits > last.Refits {
				refitCalls = append(refitCalls, refitCall{h, dur})
			} else {
				handleObserve = append(handleObserve, dur)
			}
		}
		if res.Scored {
			scored++
			if res.Rank == 1 {
				hits++
			}
			if i < o.flipAt {
				d.preScored++
				if res.Rank == 1 {
					d.preHits++
				}
				if r.baselineHit {
					d.preBaseline++
				}
			}
		}
		if res.Drift && i >= o.flipAt {
			d.driftAfterFlip = true
		}
		if res.DriftEvents > last.DriftEvents && i < o.flipAt {
			d.lastPreFlipEvent = i
		}
		u.out = append(u.out, int64(res.Rank), int64(res.Refits), int64(res.DriftEvents), int64(res.ModelVersion))
		last = res
	}
	m.stop()

	u.records = len(o.stream)
	u.identAcc = 1 // oracle labels: the chosen satellite is the scheduler's allocation
	if scored > 0 {
		u.top1 = float64(hits) / float64(scored)
	}
	u.failedShare = float64(o.unserved) / float64(o.generated)
	u.keep = svc
	if tr == nil {
		return u, nil
	}

	// The refit runs last inside the observe handler. Its span is the
	// part of a refitting call's handler time beyond the median time of
	// the calls that did not refit, placed at the handler's end.
	base := time.Duration(median(durationsUS(handleObserve)) * float64(time.Microsecond))
	for _, rc := range refitCalls {
		tr.addTail(lFit, rc.span, max(rc.dur-base, 0))
	}
	bytes := o.paramBytes.Load()
	for _, r := range results {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		bytes += int64(len(body))
	}
	us := durationsUS(u.lat)
	u.counts = map[string]float64{
		"ml.refits":              float64(refits),
		"ml.fit_rows":            ratio(fitRows, refits),
		"predict.drift_events":   float64(last.DriftEvents),
		"dishrpc.bytes_per_call": float64(bytes) / float64(len(u.lat)),
		"dishrpc.call_p99_us":    quantile(us, 0.99),
		"dishrpc.call_samples":   float64(len(us)),
		// An RPC error fails the unit, so a completed unit saw none.
		"dishrpc.call_errors": 0,
	}
	if got := svc.Stats(); got.Refits != refits || got.DriftEvents != last.DriftEvents {
		return nil, fmt.Errorf("service reports %d refits, %d drift events; client saw %d, %d",
			got.Refits, got.DriftEvents, refits, last.DriftEvents)
	}
	return u, nil
}
