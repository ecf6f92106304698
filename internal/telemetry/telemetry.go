// Package telemetry is the reproduction's observability subsystem: a
// metrics registry whose record paths are lock-free and allocation-free
// (atomic counters, gauges, and fixed-bucket histograms), labeled
// metric families resolved to plain handles once at wiring time, a
// bounded decision-trace ring for §5-style offline audits of the
// scheduler-observation pipeline, and text exposition in both
// Prometheus and expvar-JSON formats behind an opt-in HTTP endpoint.
//
// The paper's whole method is watching an opaque scheduler from the
// outside; this package makes our own reproduction watchable from the
// inside. Every instrumented layer (campaign engine, DTW matcher,
// learning engine, ground-truth scheduler, online predictor)
// accepts nil handles: a nil *Registry hands out nil metrics, and every
// record method is a nil-safe no-op, so the uninstrumented path costs
// one predictable branch — the telemetry.Nop contract, held by
// BenchmarkCampaignParallel vs. its telemetry-enabled twin.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Nop is the disabled registry: it hands out nil metric handles whose
// record methods are no-ops. Writing `reg := telemetry.Nop` (or any nil
// *Registry) turns every instrumented layer off.
var Nop *Registry

// Counter is a monotonically increasing metric. The zero value is NOT
// usable on the exposition path — obtain counters from a Registry —
// but all record methods are safe on a nil receiver.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta. Negative deltas are ignored: a counter only rises.
func (c *Counter) Add(delta int64) {
	if c != nil && delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down (queue depths,
// in-flight counts).
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float-valued gauge (rates, fractions). Stored as
// IEEE-754 bits in a uint64, so Set/Value are single atomic ops.
type FloatGauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: bounds are chosen at
// registration, the record path is a linear scan over a handful of
// bounds plus three atomic adds — no locks, no allocations. Observe is
// safe for concurrent use.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	name   string
	help   string
}

// DefBuckets is a general-purpose latency scale in seconds, from 50 µs
// to ~10 s — wide enough for a DTW slot and a forest fit alike.
var DefBuckets = []float64{5e-5, 2.5e-4, 1e-3, 5e-3, 2.5e-2, 0.1, 0.5, 2.5, 10}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// CounterVec is a labeled counter family over one label dimension.
// With resolves a label value to a plain *Counter handle once; callers
// keep the handle so the observation path itself never touches the
// map. The paths that cannot pre-resolve (skip reasons discovered at
// run time) call With per event — an RWMutex read on a cold path.
type CounterVec struct {
	name  string
	help  string
	label string

	mu       sync.RWMutex
	children map[string]*Counter
	reg      *Registry
}

// With returns the counter for one label value, creating and
// registering it on first use. Nil-safe: a nil vec returns a nil
// counter.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c != nil {
		return c
	}
	c = &Counter{name: fmt.Sprintf("%s{%s=%q}", v.name, v.label, value), help: v.help}
	v.children[value] = c
	return c
}

// Values returns a copy of the per-label counts (nil-safe).
func (v *CounterVec) Values() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.children))
	for k, c := range v.children {
		out[k] = c.Value()
	}
	return out
}

// GaugeVec is a labeled gauge family over one label dimension — the
// coordinator's per-shard queue depths and lags live here. Like
// CounterVec, With resolves a label value to a plain *Gauge handle
// once, so the record path never touches the map.
type GaugeVec struct {
	name  string
	help  string
	label string

	mu       sync.RWMutex
	children map[string]*Gauge
}

// With returns the gauge for one label value, creating and registering
// it on first use. Nil-safe: a nil vec returns a nil gauge.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	g := v.children[value]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.children[value]; g != nil {
		return g
	}
	g = &Gauge{name: fmt.Sprintf("%s{%s=%q}", v.name, v.label, value), help: v.help}
	v.children[value] = g
	return g
}

// Values returns a copy of the per-label values (nil-safe).
func (v *GaugeVec) Values() map[string]int64 {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.children))
	for k, g := range v.children {
		out[k] = g.Value()
	}
	return out
}

// metric is the registry's view of one registered family.
type metric struct {
	name string
	c    *Counter
	g    *Gauge
	fg   *FloatGauge
	h    *Histogram
	vec  *CounterVec
	gvec *GaugeVec
}

// Registry holds named metrics. Registration takes a mutex;
// observation never does. A nil Registry is the disabled subsystem:
// every constructor returns nil and every record method no-ops.
type Registry struct {
	mu      sync.Mutex
	ordered []metric
	byName  map[string]metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// register installs m under its name, or returns the existing metric
// when the name is taken (idempotent re-wiring: environments may
// re-create their instrument bundles against a shared registry).
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.name]; ok {
		return old
	}
	r.byName[m.name] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or retrieves) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(metric{name: name, c: &Counter{name: name, help: help}})
	return m.c
}

// Gauge registers (or retrieves) an integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(metric{name: name, g: &Gauge{name: name, help: help}})
	return m.g
}

// FloatGauge registers (or retrieves) a float gauge.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if r == nil {
		return nil
	}
	m := r.register(metric{name: name, fg: &FloatGauge{name: name, help: help}})
	return m.fg
}

// Histogram registers (or retrieves) a fixed-bucket histogram. bounds
// must be ascending; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		name:   name,
		help:   help,
	}
	m := r.register(metric{name: name, h: h})
	return m.h
}

// CounterVec registers (or retrieves) a one-label counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	v := &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter), reg: r}
	m := r.register(metric{name: name, vec: v})
	return m.vec
}

// GaugeVec registers (or retrieves) a one-label gauge family.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	v := &GaugeVec{name: name, help: help, label: label, children: make(map[string]*Gauge)}
	m := r.register(metric{name: name, gvec: v})
	return m.gvec
}

// HistogramSnapshot is one histogram's point-in-time state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra slot for
	// the +Inf bucket. Counts are per-bucket, not cumulative.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot is a point-in-time view of every metric, for tests and the
// cmd-level summaries. Labeled counters appear under their canonical
// name{label="value"} key.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	FloatGauge map[string]float64
	Histograms map[string]HistogramSnapshot
}

// CountersWithPrefix returns every counter whose key starts with
// prefix, keys sorted — the deterministic iteration the cmd summaries
// print.
func (s Snapshot) CountersWithPrefix(prefix string) (keys []string, values []int64) {
	for k := range s.Counters {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	values = make([]int64, len(keys))
	for i, k := range keys {
		values[i] = s.Counters[k]
	}
	return keys, values
}

// Snapshot captures the registry. Nil-safe: a nil registry snapshots
// empty (non-nil) maps so callers can index without guarding.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		FloatGauge: map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	ordered := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	for _, m := range ordered {
		switch {
		case m.c != nil:
			s.Counters[m.name] = m.c.Value()
		case m.g != nil:
			s.Gauges[m.name] = m.g.Value()
		case m.fg != nil:
			s.FloatGauge[m.name] = m.fg.Value()
		case m.h != nil:
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), m.h.bounds...),
				Counts: make([]uint64, len(m.h.counts)),
				Count:  m.h.count.Load(),
				Sum:    m.h.Sum(),
			}
			for i := range m.h.counts {
				hs.Counts[i] = m.h.counts[i].Load()
			}
			s.Histograms[m.name] = hs
		case m.vec != nil:
			m.vec.mu.RLock()
			for v, c := range m.vec.children {
				s.Counters[fmt.Sprintf("%s{%s=%q}", m.name, m.vec.label, v)] = c.Value()
			}
			m.vec.mu.RUnlock()
		case m.gvec != nil:
			for v, g := range m.gvec.Values() {
				s.Gauges[fmt.Sprintf("%s{%s=%q}", m.name, m.gvec.label, v)] = g
			}
		}
	}
	return s
}
