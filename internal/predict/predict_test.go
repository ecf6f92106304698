package predict

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dishrpc"
	"repro/internal/features"
	"repro/internal/telemetry"
)

// regimeStream fabricates a learnable campaign: every slot sees nSats
// satellites that differ only in elevation, so the cluster space
// collapses to the ElZ axis and a small forest learns the selection
// rule quickly. Regime "high" picks the max-elevation satellite (the
// default scheduler's bias); "low" picks the minimum — the adversarial
// weight flip in miniature.
func regimeStream(rng *rand.Rand, n, nSats int, high bool) []core.SlotRecord {
	base := time.Date(2023, 3, 1, 0, 0, 12, 0, time.UTC)
	out := make([]core.SlotRecord, n)
	for i := range out {
		avail := make([]core.SatObs, nSats)
		best := 0
		for j := range avail {
			el := 40 + rng.NormFloat64()*10
			avail[j] = core.SatObs{ID: j + 1, ElevationDeg: el, AzimuthDeg: 180, AgeYears: 2}
			if high && el > avail[best].ElevationDeg {
				best = j
			}
			if !high && el < avail[best].ElevationDeg {
				best = j
			}
		}
		out[i] = core.SlotRecord{Observation: core.Observation{
			Terminal:  "T",
			SlotStart: base.Add(time.Duration(i) * 15 * time.Second),
			LocalHour: (i / 4) % 24,
			Available: avail,
			ChosenIdx: best,
		}}
	}
	return out
}

func feed(t *testing.T, s *Service, recs []core.SlotRecord) []ScoreUpdate {
	t.Helper()
	ups := make([]ScoreUpdate, len(recs))
	for i := range recs {
		up, err := s.ObserveRecord(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		ups[i] = up
	}
	return ups
}

// TestServiceRetrainDeterministic is the service-level half of the
// determinism contract: two services fed the same stream publish
// bit-identical models at every refit, whether training runs serial or
// on four workers.
func TestServiceRetrainDeterministic(t *testing.T) {
	recs := regimeStream(rand.New(rand.NewSource(7)), 200, 12, true)
	run := func(workers int) (string, Stats) {
		t.Helper()
		s, err := NewService(Config{
			Window: 128, RefitEvery: 50, MinFit: 50,
			Trees: 10, MaxDepth: 5, Seed: 3, Workers: workers,
			Synchronous: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, recs)
		f, _ := s.Model()
		if f == nil {
			t.Fatal("no model after 200 slots")
		}
		h := sha256.New()
		if err := f.Save(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil)), s.Stats()
	}
	fp1, st1 := run(1)
	fp4, st4 := run(4)
	if fp1 != fp4 {
		t.Errorf("workers=1 fingerprint %s != workers=4 %s", fp1, fp4)
	}
	if st1 != st4 {
		t.Errorf("stats diverged:\n  workers=1: %+v\n  workers=4: %+v", st1, st4)
	}
	if st1.Refits < 2 {
		t.Errorf("expected >= 2 refits over 200 slots, got %d", st1.Refits)
	}
	if st1.ModelVersion != int64(st1.Refits) {
		t.Errorf("model version %d != refits %d with synchronous fits", st1.ModelVersion, st1.Refits)
	}
}

// TestDriftDetection walks the adversarial arc: learn regime A, flip
// the selection rule, watch recent accuracy collapse and the drift
// flag rise, then confirm the forced refit re-learns regime B and the
// flag clears.
func TestDriftDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reg := telemetry.NewRegistry()
	s, err := NewService(Config{
		Window: 256, RefitEvery: 64, MinFit: 64,
		Trees: 10, MaxDepth: 6, Seed: 5, Workers: 2,
		TopK: 5, AccWindow: 32, RefWindow: 128, DriftDrop: 0.2,
		Synchronous: true, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	pre := feed(t, s, regimeStream(rng, 400, 12, true))
	last := pre[len(pre)-1]
	if last.RecentTop1 < 0.5 {
		t.Fatalf("stationary recent top-1 = %v, model never learned regime A", last.RecentTop1)
	}
	if last.Drift || last.DriftEvents != 0 {
		t.Fatalf("drift flagged during stationary phase: %+v", last)
	}

	post := feed(t, s, regimeStream(rng, 600, 12, false))
	detectedAt := -1
	clearedAt := -1
	for i, up := range post {
		if detectedAt < 0 && up.DriftEvents > 0 {
			detectedAt = i
		}
		if detectedAt >= 0 && clearedAt < 0 && !up.Drift {
			clearedAt = i
		}
	}
	if detectedAt < 0 {
		t.Fatal("drift never detected after the weight flip")
	}
	// Detection latency is bounded by the short horizon plus the gap
	// threshold: well under one reference window.
	if detectedAt > 128 {
		t.Errorf("drift detected %d slots after flip, want <= RefWindow (128)", detectedAt)
	}
	if clearedAt < 0 {
		t.Error("drift flag never cleared after retraining on the new regime")
	}
	final := post[len(post)-1]
	if final.RecentTop1 < 0.5 {
		t.Errorf("post-retrain recent top-1 = %v, model never recovered", final.RecentTop1)
	}
	if final.Drift {
		t.Errorf("drift still flagged at stream end: %+v", final)
	}

	snap := reg.Snapshot()
	if snap.Counters["predict_drift_events_total"] < 1 {
		t.Error("predict_drift_events_total not incremented")
	}
	if snap.Counters["predict_refits_total"] < 2 {
		t.Errorf("predict_refits_total = %d, want >= 2", snap.Counters["predict_refits_total"])
	}
	if snap.Counters["predict_scored_total"] == 0 {
		t.Error("predict_scored_total stayed zero")
	}
}

// TestAtomicSwapUnderLoad hammers the serve path from readers while
// background refits publish new models — under -race this is the
// "never serve a half-written model" guarantee.
func TestAtomicSwapUnderLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := NewService(Config{
		Window: 128, RefitEvery: 32, MinFit: 32,
		Trees: 5, MaxDepth: 4, Seed: 1, Workers: 2,
		Synchronous: false, // background refits
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := regimeStream(rng, 300, 10, true)
	sats := make([]core.SatObs, 10)
	copy(sats, recs[0].Available)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sc := NewScratch()
			q := rand.New(rand.NewSource(seed))
			query := regimeStream(q, 1, 10, true)[0]
			for {
				select {
				case <-stop:
					return
				default:
				}
				sc.sats = sc.sats[:0]
				for _, a := range query.Available {
					sc.sats = append(sc.sats, satFromObs(a))
				}
				if _, err := s.Rank(query.LocalHour, sc.sats, sc); err != nil && !errors.Is(err, ErrNoModel) {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	feed(t, s, recs)
	close(stop)
	wg.Wait()
	// Wait out any refit still in flight so -race sees its writes too.
	deadline := time.After(30 * time.Second)
	for {
		s.mu.Lock()
		busy := s.refitting
		s.mu.Unlock()
		if !busy {
			break
		}
		select {
		case <-deadline:
			t.Fatal("refit still in flight after 30s")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if f, v := s.Model(); f == nil || v == 0 {
		t.Error("no model published despite refits")
	}
}

// TestRPCRoundTrip runs the full wire path: server, typed client,
// every method, plus the typed unknown-method error.
func TestRPCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	reg := telemetry.NewRegistry()
	s, err := NewService(Config{
		Window: 128, RefitEvery: 40, MinFit: 40,
		Trees: 8, MaxDepth: 5, Seed: 2, Workers: 2,
		Synchronous: true, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, regimeStream(rng, 80, 10, true)) // past MinFit: model serving

	srv, err := NewServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	defer func() { cancel(); <-done }()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sats := make([]SatParam, 10)
	for i := range sats {
		sats[i] = SatParam{AzimuthDeg: 180, ElevationDeg: 40 + float64(i), AgeYears: 2}
	}
	pr, err := c.Predict(12, sats)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Clusters) != 1 || pr.ModelVersion == 0 {
		t.Fatalf("predict = %+v, want one cluster from a served model", pr)
	}
	tk, err := c.TopK(12, sats, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.Clusters) != 5 || tk.Clusters[0] != pr.Clusters[0] {
		t.Fatalf("topk = %+v, want 5 clusters led by the predict answer", tk)
	}
	ob, err := c.Observe(ObserveRequest{LocalHour: 12, Sats: sats, ChosenIdx: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !ob.Scored || ob.Rank < 1 {
		t.Fatalf("observe = %+v, want a scored rank", ob)
	}
	info, err := c.ModelInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.NumTrees != 8 || info.ModelVersion == 0 {
		t.Fatalf("model_info = %+v", info)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scored == 0 || st.Refits == 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Protocol skew surfaces as the typed error, not a dead transport.
	var out struct{}
	err = c.c.Call("nope", nil, &out)
	if !errors.Is(err, dishrpc.ErrUnknownMethod) {
		t.Fatalf("unknown method error = %v, want ErrUnknownMethod", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("connection unusable after unknown method: %v", err)
	}

	if reg.Snapshot().Counters["predict_requests_total"] == 0 {
		t.Error("predict_requests_total not incremented")
	}

	// Bad requests are rejected server-side without killing the link.
	if _, err := c.Predict(99, sats); err == nil {
		t.Error("out-of-range local hour accepted")
	}
	if _, err := c.Predict(12, nil); err == nil {
		t.Error("empty available set accepted")
	}
}

// TestReusedRequestsReadFresh: the RPC handlers decode into requests
// that their pooled scratch reuses, and every decode must read as a
// fresh json.Unmarshal would: no field a frame omits keeps the last
// frame's value, neither in the request nor in its satellites.
func TestReusedRequestsReadFresh(t *testing.T) {
	s, _, _ := benchService(t)
	sats := func(n int) string {
		b := []byte("[")
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, `{"az":%d,"el":%d,"age_years":3,"sunlit":true}`, 30*i, 25+5*i)
		}
		return string(append(b, ']'))
	}
	twelve, three := sats(12), sats(3)
	bare := `[{"az":10,"el":40},{"el":70},{}]` // fields the twelve set, omitted

	t.Run("topk", func(t *testing.T) {
		for _, tc := range []struct {
			params string
			want   int
		}{
			{`{"local_hour":12,"sats":` + twelve + `,"k":3}`, 3},
			{`{"local_hour":12,"sats":` + three + `}`, s.cfg.TopK},
		} {
			res, err := s.Handle("topk", json.RawMessage(tc.params))
			if err != nil {
				t.Fatalf("topk %s: %v", tc.params, err)
			}
			if got := len(res.(PredictResult).Clusters); got != tc.want {
				t.Errorf("topk %s returned %d clusters, want %d", tc.params, got, tc.want)
			}
		}
	})

	t.Run("observe", func(t *testing.T) {
		for _, tc := range []struct{ params, err string }{
			{`{"local_hour":12,"sats":` + twelve + `,"chosen_idx":10}`, ""},
			{`{"local_hour":12,"sats":` + three + `}`, ""},
			{`{"local_hour":12,"sats":` + three + `,"chosen_idx":3}`, "predict: chosen index 3 out of range for 3 satellites"},
			{`{"local_hour":12}`, "predict: chosen index 0 out of range for 0 satellites"},
		} {
			_, err := s.Handle("observe", json.RawMessage(tc.params))
			if got := fmt.Sprint(err); (err == nil) != (tc.err == "") || err != nil && got != tc.err {
				t.Errorf("observe %s: error %s, want %q", tc.params, got, tc.err)
			}
		}
	})

	t.Run("satellites", func(t *testing.T) {
		sc := NewScratch()
		for _, raw := range []string{
			`{"local_hour":12,"sats":` + twelve + `,"k":3}`,
			`{"local_hour":5,"sats":` + bare + `}`,
		} {
			var want PredictRequest
			if err := json.Unmarshal([]byte(raw), &want); err != nil {
				t.Fatal(err)
			}
			got, err := sc.decodeRank(json.RawMessage(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("decoded %s as %+v, want %+v", raw, *got, want)
			}
		}
		for _, raw := range []string{
			`{"local_hour":12,"sats":` + twelve + `,"chosen_idx":10}`,
			`{"local_hour":5,"sats":` + bare + `}`,
		} {
			var want ObserveRequest
			if err := json.Unmarshal([]byte(raw), &want); err != nil {
				t.Fatal(err)
			}
			got, err := sc.decodeObserve(json.RawMessage(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("decoded %s as %+v, want %+v", raw, *got, want)
			}
		}
	})
}

func satFromObs(a core.SatObs) features.Sat {
	return features.Sat{
		AzimuthDeg:   a.AzimuthDeg,
		ElevationDeg: a.ElevationDeg,
		AgeYears:     a.AgeYears,
		Sunlit:       a.Sunlit,
	}
}

// Predict returns the model's best cluster for the slot.
func (c *Client) Predict(localHour int, sats []SatParam) (PredictResult, error) {
	var res PredictResult
	err := c.c.Call("predict", PredictRequest{LocalHour: localHour, Sats: sats}, &res)
	return res, err
}

// ModelInfo describes the remote serving model.
func (c *Client) ModelInfo() (ModelInfo, error) {
	var res ModelInfo
	err := c.c.Call("model_info", nil, &res)
	return res, err
}

// Stats snapshots the remote service.
func (c *Client) Stats() (Stats, error) {
	var res Stats
	err := c.c.Call("stats", nil, &res)
	return res, err
}
