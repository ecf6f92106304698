package ml

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
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
		if p.d.Y[i] != want || p.d.X[i][0] != float64(want) {
			t.Errorf("row %d = (%v, %d), want (%v, %d)", i, p.d.X[i], p.d.Y[i], float64(want), want)
		}
	}
}

// TestWindowPlanSnapshotIsolated: rows added (and evicted over) after
// Plan must not disturb the claimed snapshot — the guarantee that lets
// refits run outside the service lock.
func TestWindowPlanSnapshotIsolated(t *testing.T) {
	w, err := NewWindowTrainer(WindowConfig{Capacity: 3, NumClasses: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Add([]float64{float64(i)}, i)
	}
	p := w.Plan()
	for i := 5; i < 20; i++ {
		w.Add([]float64{float64(i)}, i) // overwrites every ring slot
	}
	for i, want := range []int{2, 3, 4} {
		if p.d.X[i][0] != float64(want) {
			t.Errorf("snapshot row %d mutated: %v, want %v", i, p.d.X[i][0], float64(want))
		}
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
