package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a test counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only rise
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Value() = %d, want 7", got)
	}
	fg := r.FloatGauge("rate", "slots per second")
	fg.Set(123.5)
	if got := fg.Value(); got != 123.5 {
		t.Fatalf("FloatGauge Value() = %v, want 123.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	// Buckets are (≤1, ≤2, ≤4, +Inf): 0.5 and 1 land in the first,
	// 1.5 and 2 in the second, 3 in the third, 100 overflows.
	want := []uint64{2, 2, 1, 1}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Fatalf("Counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if math.Abs(s.Sum-108) > 1e-9 {
		t.Fatalf("Sum = %v, want 108", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 10 observations in bucket (0,1], 10 in (1,2]: the median sits on
	// the first bucket's upper edge, p75 halfway through the second.
	hs := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []uint64{10, 10, 0, 0},
		Count:  20,
	}
	cases := []struct{ q, want float64 }{
		{0.5, 1.0},
		{0.75, 1.5},
		{0.25, 0.5},
		{1.0, 2.0},
	}
	for _, c := range cases {
		if got := hs.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Overflow ranks clamp to the last finite bound.
	over := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{1, 0, 3}, Count: 4}
	if got := over.Quantile(0.99); got != 2 {
		t.Errorf("+Inf-bucket quantile = %v, want clamp to 2", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistogramDefaultBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", nil)
	h.Observe(0.3)
	s := r.Snapshot().Histograms["lat"]
	if !reflect.DeepEqual(s.Bounds, DefBuckets) {
		t.Fatalf("Bounds = %v, want DefBuckets", s.Bounds)
	}
}

func TestCounterVecHandles(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("skips_total", "skips by reason", "reason")
	a := v.With("no-sats")
	b := v.With("no-sats")
	if a != b {
		t.Fatal("With should return the same handle for the same value")
	}
	a.Add(3)
	v.With("gso").Inc()
	vals := v.Values()
	if vals["no-sats"] != 3 || vals["gso"] != 1 {
		t.Fatalf("Values() = %v", vals)
	}
	s := r.Snapshot()
	if got := s.Counters[`skips_total{reason="no-sats"}`]; got != 3 {
		t.Fatalf("snapshot labeled counter = %d, want 3", got)
	}
}

func TestGaugeVecHandles(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("coord_shard_queue_depth", "records queued per shard", "shard")
	a := v.With("0")
	b := v.With("0")
	if a != b {
		t.Fatal("With should return the same handle for the same value")
	}
	a.Set(7)
	v.With("1").Add(2)
	v.With("1").Add(-1)
	vals := v.Values()
	if vals["0"] != 7 || vals["1"] != 1 {
		t.Fatalf("Values() = %v", vals)
	}
	s := r.Snapshot()
	if got := s.Gauges[`coord_shard_queue_depth{shard="0"}`]; got != 7 {
		t.Fatalf("snapshot labeled gauge = %d, want 7", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE coord_shard_queue_depth gauge",
		`coord_shard_queue_depth{shard="0"} 7`,
		`coord_shard_queue_depth{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Nil safety mirrors the other handle types.
	var nilv *GaugeVec
	nilv.With("x").Set(1)
	if nilv.Values() != nil {
		t.Fatal("nil GaugeVec.Values should be nil")
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Fatal("re-registering the same name must return the same counter")
	}
	h1 := r.Histogram("h", "h", []float64{1})
	h2 := r.Histogram("h", "h", []float64{1})
	if h1 != h2 {
		t.Fatal("re-registering the same histogram must return the same handle")
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry = Nop
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	fg := r.FloatGauge("fg", "")
	h := r.Histogram("h", "", nil)
	v := r.CounterVec("v", "", "l")
	if c != nil || g != nil || fg != nil || h != nil || v != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// None of these may panic.
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	fg.Set(1)
	h.Observe(1)
	v.With("x").Inc()
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.FloatGauge == nil || s.Histograms == nil {
		t.Fatal("nil registry Snapshot must return non-nil maps")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1, 2})
	v := r.CounterVec("v_total", "", "k")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", w%3)
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%3) + 0.5)
				v.With(key).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	total := int64(0)
	for _, n := range v.Values() {
		total += n
	}
	if total != workers*per {
		t.Fatalf("vec total = %d, want %d", total, workers*per)
	}
	if want := float64(workers) * (per/3*(0.5+1.5+2.5) + 0.5); math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

func TestCountersWithPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign_b_total", "").Add(2)
	r.Counter("campaign_a_total", "").Add(1)
	r.Counter("other_total", "").Add(9)
	keys, vals := r.Snapshot().CountersWithPrefix("campaign_")
	if !reflect.DeepEqual(keys, []string{"campaign_a_total", "campaign_b_total"}) {
		t.Fatalf("keys = %v", keys)
	}
	if !reflect.DeepEqual(vals, []int64{1, 2}) {
		t.Fatalf("vals = %v", vals)
	}
}

// parsePrometheusText is a minimal validator for the text exposition
// format 0.0.4: HELP/TYPE comments, then `name[{label="value"}] value`
// sample lines whose value parses as a float. Returns sample count per
// metric family.
func parsePrometheusText(t *testing.T, r io.Reader) map[string]int {
	t.Helper()
	families := map[string]int{}
	typed := map[string]string{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", lineNo, line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("line %d: invalid TYPE %q", lineNo, parts[3])
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", lineNo, line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("line %d: value %q does not parse: %v", lineNo, val, err)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels := name[i:]
			if !strings.HasSuffix(labels, "}") || !strings.Contains(labels, "=\"") {
				t.Fatalf("line %d: malformed labels %q", lineNo, labels)
			}
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no TYPE line", lineNo, name)
		}
		families[base]++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return families
}

func TestWritePrometheusValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("slots_total", "slots").Add(42)
	r.Gauge("depth", "depth").Set(-3)
	r.FloatGauge("rate", "rate").Set(17.25)
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	v := r.CounterVec("skips_total", "skips", "reason")
	v.With("gso").Inc()
	v.With("no-sats").Add(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	families := parsePrometheusText(t, strings.NewReader(out))
	if families["slots_total"] != 1 || families["depth"] != 1 || families["rate"] != 1 {
		t.Fatalf("missing scalar samples: %v\n%s", families, out)
	}
	// Histogram: 3 bucket lines (two bounds + +Inf) + sum + count.
	if families["lat_seconds"] != 5 {
		t.Fatalf("histogram samples = %d, want 5\n%s", families["lat_seconds"], out)
	}
	if families["skips_total"] != 2 {
		t.Fatalf("vec samples = %d, want 2\n%s", families["skips_total"], out)
	}
	// Buckets must be cumulative and end at the total count.
	if !strings.Contains(out, `lat_seconds_bucket{le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{le="0.001"} 1`) {
		t.Fatalf("first bucket not cumulative:\n%s", out)
	}
	// Labeled samples must come out sorted by label value.
	if strings.Index(out, `reason="gso"`) > strings.Index(out, `reason="no-sats"`) {
		t.Fatalf("vec samples not sorted:\n%s", out)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(7)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if m["c_total"] != float64(7) {
		t.Fatalf("c_total = %v", m["c_total"])
	}
	h, ok := m["h"].(map[string]any)
	if !ok || h["count"] != float64(1) {
		t.Fatalf("histogram object = %v", m["h"])
	}
}

func TestDecisionTraceRing(t *testing.T) {
	tr := NewDecisionTrace(3)
	for i := 1; i <= 5; i++ {
		tr.Record(Decision{Terminal: fmt.Sprintf("t%d", i), ChosenID: i})
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Recorded() != 5 {
		t.Fatalf("Recorded = %d, want 5", tr.Recorded())
	}
	snap := tr.Snapshot()
	ids := make([]int, len(snap))
	for i, d := range snap {
		ids[i] = d.ChosenID
	}
	if !reflect.DeepEqual(ids, []int{3, 4, 5}) {
		t.Fatalf("snapshot order = %v, want oldest-first [3 4 5]", ids)
	}
}

func TestDecisionTraceNil(t *testing.T) {
	var tr *DecisionTrace
	tr.Record(Decision{})
	if tr.Len() != 0 || tr.Recorded() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil trace must no-op")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil trace wrote %q", buf.String())
	}
}

func TestDecisionJSONLRoundTrip(t *testing.T) {
	in := []Decision{
		{
			SlotStart: time.Date(2024, 3, 1, 12, 0, 15, 0, time.UTC),
			Terminal:  "seattle",
			ChosenID:  4431,
			ChosenAOE: 61.5,
			Rejected: []RejectedCandidate{
				{SatID: 5120, AOEDeg: 58.2, AzimuthDeg: 184.0, AgeYears: 1.7, Sunlit: true},
				{SatID: 3300, AOEDeg: 41.9, AzimuthDeg: 12.5, AgeYears: 3.2},
			},
		},
		{
			SlotStart:  time.Date(2024, 3, 1, 12, 0, 30, 0, time.UTC),
			Terminal:   "seattle",
			SkipReason: "no-visible-satellite",
		},
	}
	var buf bytes.Buffer
	enc := NewDecisionEncoder(&buf)
	for i := range in {
		if err := enc.Encode(&in[i]); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("expected %d lines, got %d:\n%s", len(in), got, buf.String())
	}
	out, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDecisionTraceWriteJSONL(t *testing.T) {
	tr := NewDecisionTrace(8)
	tr.Record(Decision{Terminal: "a", ChosenID: 1})
	tr.Record(Decision{Terminal: "b", SkipReason: "gso-arc"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	out, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 2 || out[0].Terminal != "a" || out[1].SkipReason != "gso-arc" {
		t.Fatalf("decoded = %+v", out)
	}
}

func TestServerServesAndShutsDown(t *testing.T) {
	r := NewRegistry()
	r.Counter("campaign_slots_total", "slots").Add(9)
	tr := NewDecisionTrace(4)
	tr.Record(Decision{Terminal: "x", ChosenID: 2})
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := StartServer(ctx, "127.0.0.1:0", r, tr)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "campaign_slots_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	decisions, err := ReadDecisions(strings.NewReader(get("/debug/decisions")))
	if err != nil || len(decisions) != 1 || decisions[0].ChosenID != 2 {
		t.Fatalf("/debug/decisions = %+v err=%v", decisions, err)
	}
	cancel()
	if err := srv.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNop(b *testing.B) {
	c := Nop.Counter("bench_total", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_lat", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkHistogramObserveNop(b *testing.B) {
	h := Nop.Histogram("bench_lat", "", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00042)
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_vec_total", "", "reason")
	v.With("warm")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("warm").Inc()
	}
}

func TestZeroAllocRecordPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.001) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op", n)
	}
}

// Quantile estimates the q-th quantile (0..1) from the bucketed
// counts, interpolating linearly within the bucket that holds the
// target rank — the usual Prometheus-style estimator. The lowest
// bucket interpolates from zero; a rank landing in the +Inf bucket
// clamps to the last finite bound. Returns 0 for an empty histogram.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) { // +Inf bucket: no upper bound to lerp to
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// ReadDecisions decodes a whole JSONL decision trace.
func ReadDecisions(r io.Reader) ([]Decision, error) {
	dec := json.NewDecoder(r)
	var out []Decision
	for {
		var d Decision
		if err := dec.Decode(&d); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
}
