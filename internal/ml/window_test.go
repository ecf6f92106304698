package ml

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// windowRows synthesizes a labelled stream with learnable structure.
func windowRows(n, width, classes int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		x := make([]float64, width)
		y := rng.Intn(classes)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		x[y%width] += 3 // signal
		xs[i], ys[i] = x, y
	}
	return xs, ys
}

// TestWindowRetrainDeterministic is the sliding-window half of the
// serving determinism contract: two trainers fed the same stream
// produce bit-identical forest fingerprints at every refit, whether
// each fit runs serial or on four workers.
func TestWindowRetrainDeterministic(t *testing.T) {
	xs, ys := windowRows(300, 12, 5, 11)
	cfg := WindowConfig{
		Capacity:   128,
		NumClasses: 5,
		Forest:     ForestConfig{NumTrees: 15, Tree: TreeConfig{MaxDepth: 6}, Seed: 42},
	}
	fingerprints := func(workers int) []string {
		t.Helper()
		w, err := NewWindowTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := range xs {
			w.Add(xs[i], ys[i])
			if w.Len() >= 64 && (i+1)%100 == 0 {
				f, err := w.Plan().Fit(context.Background(), workers)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, forestFingerprint(t, f))
			}
		}
		return out
	}
	serial := fingerprints(1)
	parallel := fingerprints(4)
	if len(serial) != 3 {
		t.Fatalf("expected 3 refits, got %d", len(serial))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("refit %d: workers=1 fingerprint %s != workers=4 %s", i, serial[i], parallel[i])
		}
	}
	// Consecutive refits must differ (the derived seed advances even
	// when the window barely changes).
	if serial[1] == serial[2] && serial[0] == serial[1] {
		t.Error("every refit produced the same forest; derived seeds look stuck")
	}
}

// TestWindowEviction pins the ring semantics: capacity bounds the
// window and the snapshot is oldest-to-newest.
func TestWindowEviction(t *testing.T) {
	w, err := NewWindowTrainer(WindowConfig{Capacity: 4, NumClasses: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Add([]float64{float64(i)}, i)
	}
	if w.Len() != 4 {
		t.Fatalf("Len = %d, want 4", w.Len())
	}
	p := w.Plan()
	if p.Rows() != 4 {
		t.Fatalf("snapshot rows = %d, want 4", p.Rows())
	}
	for i, want := range []int{6, 7, 8, 9} {
		y, x := int(p.fc.y[i]), p.fc.vals[0][p.fc.rank[0][i]]
		if y != want || x != float64(want) {
			t.Errorf("row %d = (%v, %d), want (%v, %d)", i, x, y, float64(want), want)
		}
	}
}

// TestWindowPlanSnapshotIsolated: rows added (and evicted over) after
// Plan must not disturb the claimed refit — the guarantee that lets
// refits run outside the service lock. The plan's forest equals that
// of a fresh trainer holding only the planned rows.
func TestWindowPlanSnapshotIsolated(t *testing.T) {
	xs, ys := windowRows(40, 6, 4, 3)
	cfg := WindowConfig{Capacity: 16, NumClasses: 4, Forest: ForestConfig{NumTrees: 5, Seed: 9}}
	w, err := NewWindowTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		w.Add(xs[i], ys[i])
	}
	p := w.Plan()
	for i := 20; i < 40; i++ {
		w.Add(xs[i], ys[i]) // overwrites every ring slot
	}
	got, err := p.Fit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewWindowTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 20; i++ {
		fresh.Add(xs[i], ys[i])
	}
	want, err := fresh.Plan().Fit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := forestFingerprint(t, got), forestFingerprint(t, want); g != w {
		t.Errorf("plan refit changed by later Adds: fingerprint %s, fresh trainer over the planned rows %s", g, w)
	}
}

// windowEdgeRows is a stream with a constant column, a column of ±0
// and small integers (repeated values, zeros of both signs) and
// learnable noisy columns.
func windowEdgeRows(n int, seed int64) ([][]float64, []int) {
	xs, ys := windowRows(n, 6, 5, seed)
	negZero := math.Copysign(0, -1)
	for i, x := range xs {
		x[0] = 2.5 // constant
		switch i % 4 {
		case 0:
			x[1] = negZero
		case 1:
			x[1] = 0
		default:
			x[1] = float64(ys[i] % 3)
		}
		x[2] = math.Round(x[2]) // few distinct values
	}
	return xs, ys
}

// TestWindowFitMatchesBatch: a refit from the column-major window, before
// and after the ring wraps, serializes to the same bytes as
// FitForestCtx over the same rows, oldest to newest, with the refit's
// seed, at one and three workers.
func TestWindowFitMatchesBatch(t *testing.T) {
	xs, ys := windowEdgeRows(170, 21)
	cfg := WindowConfig{
		Capacity:   64,
		NumClasses: 5,
		Forest:     ForestConfig{NumTrees: 9, Tree: TreeConfig{MaxDepth: 8}, Seed: 5},
	}
	for _, workers := range []int{1, 3} {
		w, err := NewWindowTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for i := range xs {
			w.Add(xs[i], ys[i])
			if n := i + 1; n != 2 && n != 40 && n != 64 && n != 65 && n != 100 && n != 170 {
				continue
			}
			p := w.Plan()
			got, err := p.Fit(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			lo := max(0, i+1-cfg.Capacity)
			d := &Dataset{X: xs[lo : i+1], Y: ys[lo : i+1], NumClasses: cfg.NumClasses}
			fcfg := cfg.Forest
			fcfg.Seed += int64(p.Index())
			fcfg.Workers = workers
			want, err := FitForestCtx(context.Background(), d, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.Rows() != len(d.X) {
				t.Errorf("workers=%d after %d rows: plan holds %d rows, want %d", workers, i+1, p.Rows(), len(d.X))
			}
			if g, w := forestFingerprint(t, got), forestFingerprint(t, want); g != w {
				t.Errorf("workers=%d after %d rows: window refit %s, batch fit %s", workers, i+1, g, w)
			}
			checked++
		}
		if checked != 6 {
			t.Fatalf("checked %d refits, want 6", checked)
		}
	}
}

// TestWindowRefitErrors: a window Dataset.Validate would reject fails
// the refit with Validate's text, found at the same row and feature,
// before and after the ring wraps.
func TestWindowRefitErrors(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	row := func(v ...float64) []float64 { return v }
	for _, tc := range []struct {
		name string
		xs   [][]float64
		ys   []int
	}{
		{"empty", nil, nil},
		{"nan", [][]float64{row(1, 2), row(3, nan), row(nan, 1)}, []int{0, 1, 0}},
		{"+inf", [][]float64{row(1, 2), row(3, 4), row(5, inf)}, []int{0, 1, 0}},
		{"-inf", [][]float64{row(1, 2), row(-inf, 4), row(5, 6)}, []int{0, 1, 0}},
		{"two in one row", [][]float64{row(1, 2, 3), row(4, inf, nan), row(nan, 5, 6)}, []int{0, 1, 0}},
		{"label", [][]float64{row(1, 2), row(3, 4), row(5, 6)}, []int{0, 3, 0}},
		{"negative label", [][]float64{row(1, 2), row(3, 4), row(5, 6)}, []int{0, 1, -1}},
		{"short row", [][]float64{row(1, 2), row(3, 4), row(5)}, []int{0, 1, 0}},
		{"long row", [][]float64{row(1, 2), row(3, 4, 7), row(5, 6)}, []int{0, 1, 0}},
		{"nan before width", [][]float64{row(1, 2), row(nan, 4), row(5)}, []int{0, 1, 0}},
		{"width before nan", [][]float64{row(1, 2), row(3), row(nan, 6)}, []int{0, 1, 0}},
		{"width and nan in one row", [][]float64{row(1, 2), row(nan, 3, 4)}, []int{0, 1}},
		{"wrapped nan", [][]float64{row(nan, 1), row(1, 2), row(3, 4), row(5, 6), row(7, inf), row(8, 9)}, []int{0, 1, 0, 1, 0, 1}},
		{"wrapped width", [][]float64{row(0, 1), row(1, 2), row(3, 4), row(5, 6), row(7, 8, 9), row(8, 9)}, []int{0, 1, 0, 1, 0, 1}},
	} {
		const capacity = 4
		w, err := NewWindowTrainer(WindowConfig{Capacity: capacity, NumClasses: 3, Forest: ForestConfig{NumTrees: 2}})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.xs {
			w.Add(tc.xs[i], tc.ys[i])
		}
		lo := max(0, len(tc.xs)-capacity)
		d := &Dataset{X: tc.xs[lo:], Y: tc.ys[lo:], NumClasses: 3}
		verr := d.Validate()
		if verr == nil {
			t.Fatalf("%s: the dataset validates; the case needs a bad window", tc.name)
		}
		_, err = w.Plan().Fit(context.Background(), 1)
		if want := "ml: window refit 0: " + verr.Error(); err == nil || err.Error() != want {
			t.Errorf("%s: refit error %v, want %q", tc.name, err, want)
		}
	}

	// The first row sets the window's width: once it is evicted, a
	// window of rows all of another width still fails.
	w, err := NewWindowTrainer(WindowConfig{Capacity: 2, NumClasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{row(1), row(1, 2), row(3, 4)} {
		w.Add(x, 0)
	}
	_, err = w.Plan().Fit(context.Background(), 1)
	if want := "ml: window refit 0: ml: window rows have 2 features, the window holds 1"; err == nil || err.Error() != want {
		t.Errorf("rows wider than the first row: refit error %v, want %q", err, want)
	}
}

// TestWindowTrainerValidation covers the config gates.
func TestWindowTrainerValidation(t *testing.T) {
	if _, err := NewWindowTrainer(WindowConfig{Capacity: 1, NumClasses: 2}); err == nil {
		t.Error("capacity 1 accepted")
	}
	if _, err := NewWindowTrainer(WindowConfig{Capacity: 8}); err == nil {
		t.Error("zero classes accepted")
	}
}

// TestSwapForestVersioning pins the publish counter.
func TestSwapForestVersioning(t *testing.T) {
	var s SwapForest
	if s.Load() != nil || s.Version() != 0 {
		t.Fatal("fresh SwapForest not empty")
	}
	f := &Forest{numClasses: 2, numFeatures: 1}
	if v := s.Store(f); v != 1 {
		t.Errorf("first Store version = %d, want 1", v)
	}
	if s.Load() != f {
		t.Error("Load returned a different forest")
	}
	if v := s.Store(f); v != 2 || s.Version() != 2 {
		t.Errorf("second Store version = %d (Version %d), want 2", v, s.Version())
	}
}

// TestLoadForestForShapeGate: a serialized forest whose feature width
// or class count disagrees with the serving schema must be rejected at
// load time with ErrModelShape, not at predict time.
func TestLoadForestForShapeGate(t *testing.T) {
	xs, ys := windowRows(60, 7, 3, 5)
	d := &Dataset{X: xs, Y: ys, NumClasses: 3}
	f, err := FitForestCtx(context.Background(), d, ForestConfig{NumTrees: 3, Tree: TreeConfig{MaxDepth: 3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := LoadForestFor(bytes.NewReader(raw), 7, 3); err != nil {
		t.Fatalf("matching shape rejected: %v", err)
	}
	if _, err := LoadForestFor(bytes.NewReader(raw), 0, 0); err != nil {
		t.Fatalf("unchecked load rejected: %v", err)
	}
	_, err = LoadForestFor(bytes.NewReader(raw), 251, 3)
	if !errors.Is(err, ErrModelShape) {
		t.Errorf("feature mismatch = %v, want ErrModelShape", err)
	}
	_, err = LoadForestFor(bytes.NewReader(raw), 7, 250)
	if !errors.Is(err, ErrModelShape) {
		t.Errorf("class mismatch = %v, want ErrModelShape", err)
	}
}

// refitRows synthesizes a full window shaped like the §6 vectors: an
// hour column, then 250 small per-cluster counts, each row touching a
// handful of clusters drawn with a skew, so some columns stay zero,
// labelled with one of the touched clusters.
func refitRows(n int, seed int64) ([][]float64, []int) {
	const clusters = 250
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		x := make([]float64, 1+clusters)
		x[0] = float64(i % 24)
		for k := 0; k < 8; k++ {
			c := int(float64(clusters) * rng.Float64() * rng.Float64())
			x[1+c]++
			if k == 0 || rng.Intn(3) == 0 {
				ys[i] = c
			}
		}
		xs[i] = x
	}
	return xs, ys
}

// BenchmarkWindowRefit times one refit of a full 2048 × 251 window at
// the serving defaults (30 trees, depth 10, one worker): Plan, which
// validates and presorts the window, then Fit. plan-ns/op is Plan's
// share.
func BenchmarkWindowRefit(b *testing.B) {
	xs, ys := refitRows(2048+300, 1)
	w, err := NewWindowTrainer(WindowConfig{
		Capacity:   2048,
		NumClasses: 250,
		Forest:     ForestConfig{NumTrees: 30, Tree: TreeConfig{MaxDepth: 10}, Seed: 1, Workers: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := range xs {
		w.Add(xs[i], ys[i]) // wrapped: the oldest row sits mid-ring
	}
	var plan time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		p := w.Plan()
		plan += time.Since(t0)
		if _, err := p.Fit(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.Nanoseconds())/float64(b.N), "plan-ns/op")
}
