package constellation

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchCons lazily builds the full four-shell Starlink constellation
// (~4k satellites) once, so every snapshot benchmark measures the
// sweep, not TLE synthesis and SGP4 initialisation.
var (
	benchConsOnce sync.Once
	benchConsErr  error
	benchConsVal  *Constellation
)

func benchCons(b *testing.B) *Constellation {
	b.Helper()
	benchConsOnce.Do(func() {
		benchConsVal, benchConsErr = New(Config{Seed: 7})
	})
	if benchConsErr != nil {
		b.Fatal(benchConsErr)
	}
	return benchConsVal
}

// BenchmarkSnapshot is the serial snapshot sweep over the full
// constellation. "fresh" allocates the state slice every iteration the
// way a cold cache miss does; "warm" reuses the buffer the way the
// pooled SnapshotCache steady state does — the warm variant is the
// 0 allocs/op acceptance path (TestSnapshotSweepZeroAlloc proves the
// invariant on a small constellation; this records the cost at scale).
func BenchmarkSnapshot(b *testing.B) {
	cons := benchCons(b)
	at := cons.Epoch.Add(45 * time.Minute)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if states, _ := cons.sweep(nil, nil, at, 1, nil); len(states) == 0 {
				b.Fatal("empty snapshot")
			}
		}
		reportSatsPerSec(b, cons)
	})
	b.Run("warm", func(b *testing.B) {
		buf, _ := cons.sweep(nil, nil, at, 1, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, _ = cons.sweep(buf, nil, at, 1, nil)
		}
		reportSatsPerSec(b, cons)
	})
}

// BenchmarkSnapshotParallel sweeps the worker-pool fan-out at several
// widths against the same warm buffer; output is byte-identical to the
// serial sweep at every width (TestSnapshotSweepWorkerIdentity).
// Compare ns/op against BenchmarkSnapshot/warm for the speedup — on a
// single-core host the wider variants only add coordination overhead,
// so record the sweep on a multi-core machine for the real curve.
func BenchmarkSnapshotParallel(b *testing.B) {
	cons := benchCons(b)
	at := cons.Epoch.Add(45 * time.Minute)
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			buf, _ := cons.sweep(nil, nil, at, workers, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = cons.sweep(buf, nil, at, workers, nil)
			}
			reportSatsPerSec(b, cons)
		})
	}
}

func reportSatsPerSec(b *testing.B, cons *Constellation) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(len(cons.Sats)*b.N)/s, "sats/s")
	}
}

// BenchmarkSnapshotIndexRebuild compares a fresh index build against
// Rebuild over a warm index (same grid dims, cell backing arrays
// reused) — the steady-state slot path through SharedSnapshot.Index.
func BenchmarkSnapshotIndexRebuild(b *testing.B) {
	cons := benchCons(b)
	snap := fullSnapshot(cons, cons.Epoch.Add(45*time.Minute))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ix := NewSnapshotIndex(snap); ix == nil {
				b.Fatal("nil index")
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		ix := NewSnapshotIndex(snap)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Rebuild(snap)
		}
	})
}
