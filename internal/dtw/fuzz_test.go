package dtw

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzPoints decodes a byte stream into a track of up to maxPts
// points, rejecting non-finite coordinates (the pipeline never
// produces them, and they would make every distance NaN/Inf by
// construction rather than by algorithm).
func fuzzPoints(data []byte, maxPts int) ([]Point, []byte) {
	var out []Point
	for len(data) >= 16 && len(out) < maxPts {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		y := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			continue
		}
		// Clamp into the plot disk's magnitude range so sums cannot
		// overflow to +Inf and mask a real invariant violation.
		out = append(out, Point{math.Mod(x, 1e6), math.Mod(y, 1e6)})
	}
	return out, data
}

// FuzzDistanceInvariants checks the metric-style invariants of the
// DTW primitives on arbitrary finite tracks: symmetry, identity,
// non-negativity, normalization, and bitwise reversal insensitivity.
func FuzzDistanceInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest := fuzzPoints(data, 12)
		b, _ := fuzzPoints(rest, 12)
		if len(a) == 0 || len(b) == 0 {
			return
		}
		if d := Distance(a, a); d != 0 {
			t.Fatalf("Distance(a, a) = %v", d)
		}
		dab, dba := Distance(a, b), Distance(b, a)
		if dab < 0 {
			t.Fatalf("negative distance %v", dab)
		}
		// The recurrence is symmetric up to summation order.
		if diff := math.Abs(dab - dba); diff > 1e-9*(1+math.Abs(dab)) {
			t.Fatalf("asymmetry: %v vs %v", dab, dba)
		}
		if nd := NormalizedDistance(a, b); nd > dab {
			t.Fatalf("normalized %v exceeds raw %v", nd, dab)
		}
		rb := make([]Point, len(b))
		for i, p := range b {
			rb[len(b)-1-i] = p
		}
		d1, d2 := ReverseInsensitiveDistance(a, b), ReverseInsensitiveDistance(a, rb)
		if math.Float64bits(d1) != math.Float64bits(d2) {
			t.Fatalf("reversal changed result: %v vs %v", d1, d2)
		}
	})
}

// FuzzMatcherExactness derives an identification problem from the fuzz
// input and demands the pruned matcher be bit-identical to the brute
// force — winner, distance bits, margin bits, and error presence.
func FuzzMatcherExactness(f *testing.F) {
	f.Add(make([]byte, 200))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, rest := fuzzPoints(data, 10)
		var cands []Candidate
		for i := 0; len(rest) > 0 && i < 8; i++ {
			var track []Point
			track, rest = fuzzPoints(rest, 6)
			cands = append(cands, Candidate{ID: i + 1, Track: track})
		}
		if len(cands) > 1 { // force an exact tie into most cases
			cands = append(cands, Candidate{ID: len(cands) + 1, Track: cands[0].Track})
		}
		wantBest, wantMargin, wantErr := Identify(obs, cands)
		mt := &Matcher{}
		gotBest, gotMargin, gotErr := mt.Identify(obs, cands)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("err mismatch: brute %v, matcher %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if gotBest.ID != wantBest.ID ||
			math.Float64bits(gotBest.Distance) != math.Float64bits(wantBest.Distance) ||
			math.Float64bits(gotMargin) != math.Float64bits(wantMargin) {
			t.Fatalf("matcher (%v, %v) != brute (%v, %v)", gotBest, gotMargin, wantBest, wantMargin)
		}
	})
}

// FuzzPresampleBound checks DiscBound's contract on arbitrary plot-
// range inputs: for an observed track, a disc (c0, radius) and a
// candidate track that starts at c0 and keeps every point inside the
// disc, the bound never exceeds the exact ReverseInsensitiveDistance,
// whether the track has the full maxLen points or fewer.
func FuzzPresampleBound(f *testing.F) {
	f.Add(make([]byte, 200), 5.0, uint8(0))
	f.Add([]byte{0x40, 0x59, 0, 0, 0, 0, 0, 0, 0x40, 0x24, 0, 0, 0, 0, 0, 0, 0xc0, 0x3e, 0, 0, 0, 0, 0, 0, 0x40, 0x10, 0, 0, 0, 0, 0, 0}, 0.0, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, radius float64, missing uint8) {
		if math.IsNaN(radius) || math.IsInf(radius, 0) {
			return
		}
		radius = math.Mod(math.Abs(radius), 200)
		obs, rest := fuzzPoints(data, 10)
		pts, rest := fuzzPoints(rest, 16)
		if len(obs) == 0 || len(rest) < 16 {
			return
		}
		plot := func(p Point) Point { return Point{math.Mod(p.X, 100), math.Mod(p.Y, 100)} }
		for i := range obs {
			obs[i] = plot(obs[i])
		}
		c0 := plot(Point{math.Float64frombits(binary.LittleEndian.Uint64(rest)), math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))})
		if math.IsNaN(c0.X) || math.IsNaN(c0.Y) {
			return
		}
		track := []Point{c0}
		for _, p := range pts {
			if p = plot(p); dist(p, c0) <= radius {
				track = append(track, p)
			}
		}
		maxLen := len(track) + int(missing%4)
		lb := DiscBound(obs, c0, radius, maxLen, maxLen == len(track))
		if d := ReverseInsensitiveDistance(obs, track); lb > d {
			t.Fatalf("DiscBound %v > exact distance %v (radius %v, %d of %d points)", lb, d, radius, len(track), maxLen)
		}
	})
}
