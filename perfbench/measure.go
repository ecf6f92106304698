package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// sample is one reading of the process counters the end-to-end
// metrics are computed from.
type sample struct {
	wall     time.Time
	cpu      time.Duration // user + system time of the whole process
	allocB   uint64        // cumulative heap bytes allocated
	gcCycles uint64        // completed GC cycles
}

var counterNames = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// processCPU returns the CPU time the process has used so far, every
// thread included (GC workers and the RPC server goroutine too).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func read() sample {
	s := make([]metrics.Sample, len(counterNames))
	copy(s, counterNames)
	metrics.Read(s)
	return sample{
		wall:     time.Now(),
		cpu:      processCPU(),
		allocB:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
	}
}

// meter brackets the timed part of one unit of work.
type meter struct {
	begin, end sample
}

func (m *meter) start() { m.begin = read() }
func (m *meter) stop()  { m.end = read() }

func (m *meter) wall() time.Duration { return m.end.wall.Sub(m.begin.wall) }
func (m *meter) cpu() time.Duration  { return m.end.cpu - m.begin.cpu }
func (m *meter) allocBytes() uint64  { return m.end.allocB - m.begin.allocB }
func (m *meter) gcCycles() uint64    { return m.end.gcCycles - m.begin.gcCycles }

// liveHeapMB forces a collection and returns the bytes held by live
// heap objects, in MiB. Callers keep the state they want measured
// reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durationsUS converts durations to microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so
// the repeat mode's spreads match the acceptance rule exactly.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 0 {
			return math.NaN(), math.NaN()
		}
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
