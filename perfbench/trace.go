package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layer names one traced boundary: a call from the benchmark into one
// of the program's modules. The metric for a layer is its span self
// time per record, "<name>_us".
type layer uint8

const (
	lSnapshot layer = iota
	lRelease
	lIndex
	lAllocate
	lVisible
	lRecord
	lPaint
	lXORTrack
	lCandidates
	lMatch
	lAccumulate
	lClusterVector
	lRank
	lCall
	lHandle
	lFit
	numLayers
)

var layerNames = [numLayers]string{
	lSnapshot:      "constellation.snapshot",
	lRelease:       "constellation.release",
	lIndex:         "constellation.index_rebuild",
	lAllocate:      "scheduler.allocate",
	lVisible:       "constellation.visible_query",
	lRecord:        "core.record",
	lPaint:         "obstruction.paint",
	lXORTrack:      "obstruction.xor_track",
	lCandidates:    "core.candidate_tracks",
	lMatch:         "dtw.match",
	lAccumulate:    "core.accumulate",
	lClusterVector: "features.cluster_vector",
	lRank:          "ml.rank",
	lCall:          "dishrpc.call",
	lHandle:        "predict.handle",
	lFit:           "ml.fit",
}

// timeMetric maps each layer onto the per-layer metric its self time
// is reported under. Releasing a snapshot is part of the snapshot
// layer's cost; the client round trip's self time is the framing cost
// (encode, loopback, decode) around the server handler.
var timeMetric = [numLayers]string{
	lSnapshot:      "constellation.snapshot_us",
	lRelease:       "constellation.snapshot_us",
	lIndex:         "constellation.index_rebuild_us",
	lAllocate:      "scheduler.allocate_us",
	lVisible:       "constellation.visible_query_us",
	lRecord:        "core.record_us",
	lPaint:         "obstruction.paint_us",
	lXORTrack:      "obstruction.xor_track_us",
	lCandidates:    "core.candidate_tracks_us",
	lMatch:         "dtw.match_us",
	lAccumulate:    "core.accumulate_us",
	lClusterVector: "features.cluster_vector_us",
	lRank:          "ml.rank_us",
	lCall:          "dishrpc.frame_us",
	lHandle:        "predict.handle_us",
	lFit:           "ml.fit_us",
}

// span is one timed call. Times are nanoseconds since the tracer's
// origin; parent is the enclosing span's id (0 for a root span), and
// request numbers the slot or stream record the span worked on. Span
// ids start at 1 and index spans[id-1].
type span struct {
	parent     int32
	request    int32
	layer      layer
	start, end int64
}

// tracer keeps spans in memory; spans are written out after the run.
// It is safe for the two goroutines of the online workload (client and
// server handler); a nil *tracer records nothing, so the untraced run
// executes the same code.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	request int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setRequest numbers the request that later spans belong to.
func (t *tracer) setRequest(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.request = int32(n)
	t.mu.Unlock()
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(l layer, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, request: t.request, layer: l, start: now, end: -1})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

// stop closes span id.
func (t *tracer) stop(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// duration returns closed span id's length.
func (t *tracer) duration(id int32) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return time.Duration(s.end - s.start)
}

// addTail records a child of span parent, inferred after the fact, that
// occupies the last d of the parent's interval.
func (t *tracer) addTail(l layer, parent int32, d time.Duration) {
	t.mu.Lock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{parent: parent, request: p.request, layer: l, start: p.end - int64(d), end: p.end})
	t.mu.Unlock()
}

// selfTimes returns each layer's summed self time: a span's duration
// minus the part covered by its child spans. The sum over layers is the
// time covered by root spans.
func (t *tracer) selfTimes() ([numLayers]time.Duration, error) {
	var self [numLayers]time.Duration
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			return self, fmt.Errorf("span %d (%s) never closed", i+1, layerNames[s.layer])
		}
		if s.parent > 0 {
			child[s.parent-1] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		self[s.layer] += time.Duration(s.end - s.start - child[i])
	}
	return self, nil
}

// spanJSON is the on-disk form of one span.
type spanJSON struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Request int32  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if err := enc.Encode(spanJSON{ID: int32(i + 1), Parent: s.parent, Request: s.request, Name: layerNames[s.layer], Start: s.start, End: s.end}); err != nil {
			return err
		}
	}
	return w.Flush()
}
