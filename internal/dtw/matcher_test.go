package dtw

import (
	"math"
	"math/rand"
	"testing"
)

// randWalkTrack generates a smooth-ish trajectory: a start point plus
// a correlated walk, which is the shape sky-tracks actually have and
// what gives the lower-bound cascade something to prune.
func randWalkTrack(rng *rand.Rand, n int) []Point {
	out := make([]Point, n)
	p := Point{rng.NormFloat64() * 30, rng.NormFloat64() * 30}
	vx, vy := rng.NormFloat64()*2, rng.NormFloat64()*2
	for i := 0; i < n; i++ {
		out[i] = p
		vx += rng.NormFloat64() * 0.5
		vy += rng.NormFloat64() * 0.5
		p = Point{p.X + vx, p.Y + vy}
	}
	return out
}

// randCase generates one identification problem, deliberately mixing
// in the structural edge cases (empty tracks, exact duplicate tracks,
// candidate identical to the observed track) that exercise the tie and
// error paths.
func randCase(rng *rand.Rand) ([]Point, []Candidate) {
	obs := randWalkTrack(rng, 1+rng.Intn(24))
	k := 1 + rng.Intn(14)
	cands := make([]Candidate, k)
	for i := range cands {
		switch {
		case rng.Float64() < 0.08:
			cands[i] = Candidate{ID: i + 1} // empty track
		case rng.Float64() < 0.08 && i > 0:
			cands[i] = Candidate{ID: i + 1, Track: cands[i-1].Track} // duplicate → exact tie
		case rng.Float64() < 0.08:
			cands[i] = Candidate{ID: i + 1, Track: append([]Point(nil), obs...)} // perfect match
		default:
			cands[i] = Candidate{ID: i + 1, Track: randWalkTrack(rng, 1+rng.Intn(20))}
		}
	}
	return obs, cands
}

// assertIdentical asserts the matcher's outcome is bit-identical to
// the brute force's: same error presence, same winner, same distance
// bits, same margin bits.
func assertIdentical(t *testing.T, tag string, obs []Point, cands []Candidate, mt *Matcher) {
	t.Helper()
	wantBest, wantMargin, wantErr := Identify(obs, cands)
	gotBest, gotMargin, gotErr := mt.Identify(obs, cands)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: brute err = %v, matcher err = %v", tag, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if gotBest.ID != wantBest.ID {
		t.Fatalf("%s: winner %d != brute %d (got %v want %v)", tag, gotBest.ID, wantBest.ID, gotBest, wantBest)
	}
	if math.Float64bits(gotBest.Distance) != math.Float64bits(wantBest.Distance) {
		t.Fatalf("%s: distance %v != brute %v", tag, gotBest.Distance, wantBest.Distance)
	}
	if math.Float64bits(gotMargin) != math.Float64bits(wantMargin) {
		t.Fatalf("%s: margin %v != brute %v", tag, gotMargin, wantMargin)
	}
	// The winner must also head the brute-force ranking.
	ranked, err := Rank(obs, cands)
	if err != nil {
		t.Fatalf("%s: rank err %v after identify succeeded", tag, err)
	}
	if ranked[0].ID != gotBest.ID {
		t.Fatalf("%s: matcher winner %d != Rank()[0] %d", tag, gotBest.ID, ranked[0].ID)
	}
}

// TestMatcherExactness is the exactness guarantee: across thousands of
// randomized identification problems — including empty tracks, exact
// duplicates, and perfect matches — the pruned matcher must return
// bit-identical winner, distance, and margin to the brute force, while
// one matcher instance is reused for every case (which also proves the
// scratch buffers carry no state between calls).
func TestMatcherExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mt := &Matcher{}
	for i := 0; i < 3000; i++ {
		obs, cands := randCase(rng)
		assertIdentical(t, "case", obs, cands, mt)
	}
	if mt.Stats.KimPruned+mt.Stats.EnvelopePruned+mt.Stats.PassesAbandoned == 0 {
		t.Error("cascade never pruned anything: the exactness test is not exercising the pruned paths")
	}
}

func TestMatcherErrors(t *testing.T) {
	track := randWalkTrack(rand.New(rand.NewSource(1)), 8)
	mt := &Matcher{}
	if _, _, err := mt.Identify(nil, []Candidate{{ID: 1, Track: track}}); err == nil {
		t.Error("empty observed accepted")
	}
	if _, _, err := mt.Identify(track, nil); err == nil {
		t.Error("no candidates accepted")
	}
	// All-empty candidate set: an error, exactly like the fixed brute
	// force — a +Inf "match" is not an identification.
	if _, _, err := mt.Identify(track, []Candidate{{ID: 1}, {ID: 2}}); err == nil {
		t.Error("all-empty candidates accepted")
	}
	if _, _, err := Identify(track, []Candidate{{ID: 1}, {ID: 2}}); err == nil {
		t.Error("brute force accepted all-empty candidates")
	}
	if _, err := Rank(track, []Candidate{{ID: 1}, {ID: 2}}); err == nil {
		t.Error("Rank accepted all-empty candidates")
	}
}

// TestMatcherMarginSemantics pins the three margin regimes on both
// implementations: single candidate → 0, unrankable runner-up → +Inf,
// rankable runner-up → distance difference.
func TestMatcherMarginSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obs := randWalkTrack(rng, 10)
	near := Candidate{ID: 1, Track: append([]Point(nil), obs...)}
	far := Candidate{ID: 2, Track: randWalkTrack(rng, 10)}
	empty := Candidate{ID: 3}
	for name, identify := range map[string]func([]Point, []Candidate) (Match, float64, error){
		"brute":   Identify,
		"matcher": (&Matcher{}).Identify,
	} {
		_, margin, err := identify(obs, []Candidate{near})
		if err != nil || margin != 0 {
			t.Errorf("%s single candidate: margin=%v err=%v, want 0, nil", name, margin, err)
		}
		_, margin, err = identify(obs, []Candidate{near, empty})
		if err != nil || !math.IsInf(margin, 1) {
			t.Errorf("%s unrankable runner-up: margin=%v err=%v, want +Inf, nil", name, margin, err)
		}
		best, margin, err := identify(obs, []Candidate{far, near, empty})
		if err != nil || best.ID != 1 || math.IsInf(margin, 1) || margin <= 0 {
			t.Errorf("%s rankable runner-up: best=%v margin=%v err=%v", name, best, margin, err)
		}
	}
}

// TestMatcherBandWideIsExact: a band at least as wide as the longer
// track admits every warping path, so the banded matcher must stay
// bit-identical to the brute force.
func TestMatcherBandWideIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mt := &Matcher{Band: 1000}
	for i := 0; i < 500; i++ {
		obs, cands := randCase(rng)
		assertIdentical(t, "banded", obs, cands, mt)
	}
}

// TestMatcherBandIsRestriction: a narrow band minimizes over fewer
// warping paths, so a banded distance can only be >= the exact one.
func TestMatcherBandIsRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		obs := randWalkTrack(rng, 4+rng.Intn(16))
		cand := Candidate{ID: 1, Track: randWalkTrack(rng, 4+rng.Intn(16))}
		exactBest, _, err := Identify(obs, []Candidate{cand})
		if err != nil {
			t.Fatal(err)
		}
		banded := &Matcher{Band: 1 + rng.Intn(3)}
		gotBest, _, err := banded.Identify(obs, []Candidate{cand})
		if err != nil {
			t.Fatal(err)
		}
		if gotBest.Distance < exactBest.Distance*(1-1e-12) {
			t.Fatalf("banded distance %v below exact %v", gotBest.Distance, exactBest.Distance)
		}
	}
}

// TestMatcherPrunes is the perf contract in miniature: once the
// winner and runner-up are both plausible (small distances), the bar
// is tight and the cascade must prune every distant candidate without
// running their DTW passes. The bar is the runner-up's distance — with
// only one plausible candidate the far ones legitimately compete for
// the margin and must still be scored.
func TestMatcherPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	obs := randWalkTrack(rng, 16)
	near := append([]Point(nil), obs...)
	for j := range near {
		near[j].X += 0.5 // plausible runner-up: tiny offset from the winner
	}
	cands := []Candidate{
		{ID: 1, Track: append([]Point(nil), obs...)},
		{ID: 2, Track: near},
	}
	for i := 3; i <= 30; i++ {
		far := randWalkTrack(rng, 16)
		for j := range far {
			far[j].X += 500 // push the track far off the plot
			far[j].Y -= 500
		}
		cands = append(cands, Candidate{ID: i, Track: far})
	}
	mt := &Matcher{}
	best, margin, err := mt.Identify(obs, cands)
	if err != nil {
		t.Fatal(err)
	}
	if best.ID != 1 || best.Distance != 0 {
		t.Fatalf("best = %+v, want exact match on candidate 1", best)
	}
	if margin <= 0 || margin > 1 {
		t.Fatalf("margin = %v, want the runner-up's small offset", margin)
	}
	pruned := mt.Stats.KimPruned + mt.Stats.EnvelopePruned
	if pruned != 28 {
		t.Errorf("pruned %d of 28 distant candidates (stats %+v)", pruned, mt.Stats)
	}
	if mt.Stats.PassesRun > 4 {
		t.Errorf("%d DTW passes for a 30-candidate slot with two plausible tracks (stats %+v)", mt.Stats.PassesRun, mt.Stats)
	}
}

// benchSlot builds a representative identification problem: nCands
// satellite arcs across the plot disk (radius 65 = the 25-degree
// mask), one of which the observed track noisily follows.
func benchSlot(rng *rand.Rand, nCands, trackLen, obsLen int) ([]Point, []Candidate) {
	arc := func() []Point {
		a0 := rng.Float64() * 2 * math.Pi
		a1 := a0 + math.Pi*(0.5+rng.Float64())
		p0 := Point{65 * math.Cos(a0), 65 * math.Sin(a0)}
		p1 := Point{65 * math.Cos(a1), 65 * math.Sin(a1)}
		out := make([]Point, trackLen)
		for i := range out {
			f := float64(i) / float64(trackLen-1)
			out[i] = Point{p0.X + f*(p1.X-p0.X), p0.Y + f*(p1.Y-p0.Y)}
		}
		return out
	}
	cands := make([]Candidate, nCands)
	for i := range cands {
		cands[i] = Candidate{ID: i + 1, Track: arc()}
	}
	src := cands[rng.Intn(nCands)].Track
	obs := make([]Point, obsLen)
	for j := range obs {
		p := src[j*(trackLen-1)/(obsLen-1)]
		obs[j] = Point{p.X + rng.NormFloat64()*0.5, p.Y + rng.NormFloat64()*0.5}
	}
	return obs, cands
}

// BenchmarkRank is the brute-force baseline on a representative slot
// (~30 candidates, 16-point tracks): every candidate costs two full
// DTW evaluations plus a reversed copy.
func BenchmarkRank(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	obs, cands := benchSlot(rng, 30, 16, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rank(obs, cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatcherIdentify is the same slot through the pruned
// matcher; compare ns/op against BenchmarkRank for the speedup (the
// results are bit-identical).
func BenchmarkMatcherIdentify(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	obs, cands := benchSlot(rng, 30, 16, 24)
	mt := &Matcher{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mt.Identify(obs, cands); err != nil {
			b.Fatal(err)
		}
	}
}

// lazySource serves a candidate slice through Scan, counting builds
// and dropping the candidates marked in drop, the way a propagation
// failure drops a satellite.
type lazySource struct {
	cands []Candidate
	drop  []bool
	built []bool
}

func (s *lazySource) Candidate(i int) (Candidate, bool) {
	s.built[i] = true
	return s.cands[i], !s.drop[i]
}

// discPreBounds gives every candidate the DiscBound of the smallest
// disc around its first point that holds its track, normalized for a
// longest track of maxLen points; an empty track gets 0.
func discPreBounds(obs []Point, cands []Candidate, maxLen int) []float64 {
	pre := make([]float64, len(cands))
	for i, c := range cands {
		if len(c.Track) == 0 {
			continue
		}
		r := 0.0
		for _, p := range c.Track {
			r = math.Max(r, dist(p, c.Track[0]))
		}
		pre[i] = DiscBound(obs, c.Track[0], r, maxLen, len(c.Track) == maxLen)
	}
	return pre
}

// TestScanMatchesIdentify: Scan over disc pre-bounds and a lazy source
// that drops some candidates returns bit for bit the brute-force
// Identify over the candidates it keeps, leaves unbuilt only
// candidates whose pre-bound clears the runner-up, and accounts for
// every candidate as built or pre-pruned.
func TestScanMatchesIdentify(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	mt := &Matcher{}
	for i := 0; i < 3000; i++ {
		obs, cands := randCase(rng)
		maxLen := 0
		for _, c := range cands {
			maxLen = max(maxLen, len(c.Track))
		}
		src := &lazySource{cands: cands, drop: make([]bool, len(cands)), built: make([]bool, len(cands))}
		var kept []Candidate
		for j := range cands {
			src.drop[j] = rng.Float64() < 0.1
			if !src.drop[j] {
				kept = append(kept, cands[j])
			}
		}
		pre := discPreBounds(obs, cands, maxLen)
		before := mt.Stats
		gotBest, gotMargin, gotErr := mt.Scan(obs, len(cands), pre, src)
		wantBest, wantMargin, wantErr := Identify(obs, kept)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d: scan err %v, brute err %v", i, gotErr, wantErr)
		}
		built := 0
		for _, b := range src.built {
			if b {
				built++
			}
		}
		if got := mt.Stats.PresamplePruned - before.PresamplePruned; built+got != len(cands) {
			t.Fatalf("case %d: %d built + %d pre-pruned != %d candidates", i, built, got, len(cands))
		}
		if gotErr != nil {
			continue
		}
		if gotBest.ID != wantBest.ID || !sameBits(gotBest.Distance, wantBest.Distance) || !sameBits(gotMargin, wantMargin) {
			t.Fatalf("case %d: scan (%v, %v) != brute (%v, %v)", i, gotBest, gotMargin, wantBest, wantMargin)
		}
		// The scan stops only once every unbuilt pre-bound clears the
		// runner-up distance, best + margin up to its rounding.
		bar := wantBest.Distance + wantMargin
		for j, b := range src.built {
			if !b && pre[j] < bar*(1-1e-12) {
				t.Fatalf("case %d: candidate %d unbuilt with pre-bound %v under the runner-up %v", i, j, pre[j], bar)
			}
		}
	}
	if mt.Stats.PresamplePruned == 0 {
		t.Error("no candidate was pruned before it was built: the test is not exercising the pre-bounds")
	}
}

// TestDiscBoundUnboundedRadius: with radius +Inf only the exact
// endpoint terms remain, normalized by n + maxLen.
func TestDiscBoundUnboundedRadius(t *testing.T) {
	obs := []Point{{0, 0}, {3, 4}, {6, 8}}
	c0 := Point{0, 10}
	got := DiscBound(obs, c0, math.Inf(1), 5, false)
	want := math.Min(dist(obs[0], c0), dist(obs[2], c0)) * lbSafety / 8
	if !sameBits(got, want) {
		t.Errorf("DiscBound(+Inf) = %v, want %v", got, want)
	}
	if full := DiscBound(obs, c0, math.Inf(1), 5, true); !sameBits(full, want) {
		t.Errorf("full DiscBound(+Inf) = %v, want %v", full, want)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
