package dtw

import (
	"fmt"
	"math"
)

// MatcherStats counts what the pruning cascade did across a matcher's
// lifetime. The counters are diagnostic only; they never influence
// results.
type MatcherStats struct {
	// Candidates is the number of candidates that entered a scan,
	// built or not.
	Candidates int
	// PresamplePruned counts candidates dropped on their pre-bound
	// alone, so their tracks were never built (see Scan).
	PresamplePruned int
	// EmptyTracks counts candidates with no points (distance +Inf by
	// definition, no DTW needed).
	EmptyTracks int
	// KimPruned counts candidates dropped by the O(1) endpoint bound
	// alone.
	KimPruned int
	// EnvelopePruned counts candidates whose drop needed the O(n+m)
	// envelope bound.
	EnvelopePruned int
	// PassesRun counts DTW passes started (up to two per candidate:
	// forward and reversed).
	PassesRun int
	// PassesAbandoned counts started passes cut short by the
	// early-abandoning row check.
	PassesAbandoned int
	// PassesSkipped counts directional passes skipped because that
	// direction's endpoint bound alone cleared the bar.
	PassesSkipped int
	// Cells counts DTW cost-matrix cells actually evaluated — the
	// ground-truth work metric the pruning cascade exists to shrink
	// (a brute-force pass evaluates n×m of them).
	Cells int64
}

// Matcher is a reusable satellite-identification engine that produces
// results bit-identical to the brute-force Identify but prunes most of
// the work. It keeps a best-so-far threshold (the runner-up's
// normalized distance, since both winner and margin must stay exact)
// and runs a lower-bound cascade:
//
//  1. LB_Kim: every warping path matches the two start points and the
//     two end points, so their costs are an O(1) lower bound on the
//     raw DTW distance. Computed for both the forward and the
//     reversed alignment.
//  2. Envelope bound (LB_Keogh degenerate form): unconstrained DTW
//     lets any index pair align, so the per-index Keogh envelope
//     collapses to the whole track's bounding box. Every point of one
//     track is matched against some point of the other on a distinct
//     path cell, so the summed point-to-box distances lower-bound the
//     raw DTW cost in O(n+m). The box is order-invariant, so one
//     envelope — precomputed once per query — serves both the forward
//     and the reversed comparison.
//  3. Bound-ordered scan: candidates are visited in ascending
//     lower-bound order, so the winner and runner-up are found early,
//     the bar tightens immediately, and — the bounds being sorted —
//     the first candidate whose bound exceeds the bar proves every
//     remaining candidate can be dropped in one step. Scan runs the
//     same scan one stage earlier as well: a candidate whose track is
//     built on demand carries a pre-bound, and is built only once its
//     pre-bound comes up below the bar.
//  4. Early-abandoning DTW: every warping path crosses every row of
//     the cost matrix, so once a completed row's minimum (normalized
//     by n+m) exceeds the bar, the final distance cannot come back
//     under it and the pass stops. The reversed pass additionally
//     tightens its bar to the forward pass's result, because only the
//     smaller of the two matters; the reversal itself is an O(m) copy
//     into a scratch buffer, never a fresh allocation.
//
// A candidate is pruned only when a proven lower bound strictly
// exceeds the current runner-up distance, and exact-distance ties are
// broken by input position exactly like the stable ranking's tie rule,
// so pruning and reordering can never change which candidate wins, its
// distance, or the margin (see TestMatcherExactness). Scratch buffers
// are reused across candidates and calls; the zero value is ready to
// use. A Matcher is not safe for concurrent use — the campaign engine
// holds one per worker.
type Matcher struct {
	// Stats accumulates pruning counters across calls.
	Stats MatcherStats
	// Scratch rows for the DTW recurrence, grown on demand.
	prev, cur []float64
	// rev is the scratch buffer for reversed candidate tracks.
	rev []Point
	// pending and order are the scan's scratch lists of unbuilt and
	// built candidates.
	pending []preBound
	order   []candBound
	// slice is Identify's candidate slice, served as a TrackSource.
	slice sliceSource
}

// preBound is an unbuilt candidate's position and pre-bound.
type preBound struct {
	idx int
	lb  float64
}

// candBound carries one candidate's precomputed lower bounds through
// the bound-ordered scan. All values are normalized by (n+m) and
// pre-scaled by lbSafety so they compare directly against the bar.
type candBound struct {
	idx        int     // position in the caller's candidate list
	lb         float64 // overall bound: max(envelope, min(kimF, kimR))
	kimF, kimR float64 // per-direction endpoint bounds
	kimOnly    bool    // the endpoint bound alone equals lb
	id         int     // the built candidate's ID and track
	track      []Point
}

// lbSafety shaves a relative hair off every lower bound before it is
// compared against the bar. The bounds dominate the DTW distance by
// construction in real arithmetic, but both sides are computed in
// floats with different operation orders; the margin makes an
// ulp-level rounding inversion harmless while costing no measurable
// pruning power (the useful slack of a bound is many orders of
// magnitude larger).
const lbSafety = 1 - 1e-12

// TrackSource hands Matcher.Scan its candidates one at a time, so a
// caller can defer building a track until the scan needs it.
// Candidate(i) returns candidate i of the scan's k; ok false means
// the candidate does not exist after all (its track could not be
// built) and is left out exactly as if it had never been listed. A
// returned track must stay valid until Scan returns.
type TrackSource interface {
	Candidate(i int) (c Candidate, ok bool)
}

// sliceSource serves an already-built candidate slice.
type sliceSource []Candidate

func (s *sliceSource) Candidate(i int) (Candidate, bool) { return (*s)[i], true }

// Identify scores every candidate against the observed track and
// returns the best match plus the margin to the runner-up, exactly as
// the package-level Identify does (same winner, same distance bits,
// same margin bits, same errors) but with the pruning cascade applied.
// It is Scan with every pre-bound 0.
func (mt *Matcher) Identify(observed []Point, cands []Candidate) (Match, float64, error) {
	mt.slice = cands
	defer func() { mt.slice = nil }()
	return mt.Scan(observed, len(cands), nil, &mt.slice)
}

// Scan identifies the observed track among k candidates that src
// builds on demand. pre, when non-nil, holds a lower bound on each
// candidate's ReverseInsensitiveDistance that is known before its
// track is (see DiscBound); nil means no such bound, and a pre-bound
// that is not positive, NaN included, counts as 0. Candidates are
// fetched from src in ascending pre-bound order, and fetching stops as
// soon as the next pre-bound strictly exceeds the exact runner-up
// distance, so a candidate whose pre-bound clears the bar is never
// built. The result is the brute-force Identify over the candidates
// src returns ok for, in index order — winner, distance bits, margin
// bits and errors — because a candidate is dropped only when a proven
// bound puts it behind the runner-up, and such a candidate moves
// neither the winner nor the runner-up. (Margin 0 for a single
// candidate stays exact too: dropping needs a finite runner-up, which
// takes two built candidates.)
func (mt *Matcher) Scan(observed []Point, k int, pre []float64, src TrackSource) (Match, float64, error) {
	if len(observed) == 0 {
		return Match{}, 0, fmt.Errorf("dtw: empty observed track")
	}
	if k == 0 {
		return Match{}, 0, fmt.Errorf("dtw: no candidates")
	}
	n := len(observed)
	qlo, qhi := boundingBox(observed) // query envelope, shared by all candidates and both directions

	// pending lists the unbuilt candidates in ascending pre-bound order
	// (insertion sort: the slice is small, the scratch is reused, and
	// stability keeps the scan deterministic).
	mt.pending = mt.pending[:0]
	for i := 0; i < k; i++ {
		mt.Stats.Candidates++
		pb := preBound{idx: i}
		if pre != nil && pre[i] > 0 {
			pb.lb = pre[i]
		}
		j := len(mt.pending)
		mt.pending = append(mt.pending, pb)
		for j > 0 && mt.pending[j-1].lb > pb.lb {
			mt.pending[j] = mt.pending[j-1]
			j--
		}
		mt.pending[j] = pb
	}

	// order lists the built candidates in ascending order of their
	// post-build bound; order[next:] are those not yet scored. The
	// scan always takes the smaller of the two heads (an unbuilt
	// candidate on a tie), so with every pre-bound 0 every candidate is
	// built before any is scored.
	mt.order = mt.order[:0]
	next, built := 0, 0
	best := Match{Distance: math.Inf(1)}
	bestIdx := -1
	second := math.Inf(1) // exact runner-up distance: the pruning bar
	for p := 0; p < len(mt.pending) || next < len(mt.order); {
		pendLB, readyLB := math.Inf(1), math.Inf(1)
		if p < len(mt.pending) {
			pendLB = mt.pending[p].lb
		}
		if next < len(mt.order) {
			readyLB = mt.order[next].lb
		}
		if math.Min(pendLB, readyLB) > second {
			// Both lists are sorted and the bar only tightens: every
			// remaining candidate is proven worse than the runner-up.
			mt.Stats.PresamplePruned += len(mt.pending) - p
			for _, rest := range mt.order[next:] {
				if rest.kimOnly {
					mt.Stats.KimPruned++
				} else {
					mt.Stats.EnvelopePruned++
				}
			}
			break
		}
		if p < len(mt.pending) && pendLB <= readyLB {
			cb := candBound{idx: mt.pending[p].idx}
			p++
			c, ok := src.Candidate(cb.idx)
			if !ok {
				continue
			}
			built++
			m := len(c.Track)
			if m == 0 {
				mt.Stats.EmptyTracks++
				continue // distance +Inf: never displaces best or runner-up
			}
			nm := float64(n + m)
			cb.id, cb.track = c.ID, c.Track
			cb.kimF = lbKim(observed, c.Track, false) * lbSafety / nm
			cb.kimR = lbKim(observed, c.Track, true) * lbSafety / nm
			kim := math.Min(cb.kimF, cb.kimR)
			clo, chi := boundingBox(c.Track)
			env := math.Max(envelopeSum(c.Track, qlo, qhi), envelopeSum(observed, clo, chi)) * lbSafety / nm
			cb.lb, cb.kimOnly = math.Max(env, kim), kim >= env
			mt.order = insertBound(mt.order, next, cb)
			continue
		}

		cb := mt.order[next]
		next++
		nm := float64(n + len(cb.track))
		d := math.Inf(1)
		if cb.kimF <= second {
			if raw, ok := mt.abandoningDistance(observed, cb.track, second); ok {
				d = raw / nm
			}
		} else {
			mt.Stats.PassesSkipped++
		}
		// Only the smaller of the two directions matters, so the
		// reversed pass's bar tightens to the forward result.
		bar := math.Min(second, d)
		if cb.kimR <= bar {
			if raw, ok := mt.abandoningDistance(observed, mt.reversed(cb.track), bar); ok {
				if rd := raw / nm; rd < d {
					d = rd
				}
			}
		} else {
			mt.Stats.PassesSkipped++
		}

		// Exact ties go to the earlier input position — the stable
		// ranking's tie rule — so the bound-ordered scan cannot change
		// the winner.
		if d < best.Distance || (d == best.Distance && cb.idx < bestIdx) {
			second = best.Distance
			best = Match{ID: cb.id, Distance: d}
			bestIdx = cb.idx
		} else if d < second {
			second = d
		}
	}
	if built == 0 {
		return Match{}, 0, fmt.Errorf("dtw: no candidates")
	}
	if math.IsInf(best.Distance, 1) {
		return Match{}, 0, fmt.Errorf("dtw: all candidate tracks empty")
	}
	margin := 0.0
	if built > 1 {
		if math.IsInf(second, 1) {
			margin = math.Inf(1)
		} else {
			margin = second - best.Distance
		}
	}
	return best, margin, nil
}

// insertBound inserts cb into the ascending run list[from:], after any
// equal bounds, and returns the grown list.
func insertBound(list []candBound, from int, cb candBound) []candBound {
	j := len(list)
	list = append(list, cb)
	for j > from && list[j-1].lb > cb.lb {
		list[j] = list[j-1]
		j--
	}
	list[j] = cb
	return list
}

// reversed copies track back to front into the matcher's scratch
// buffer (no allocation after the first growth).
func (mt *Matcher) reversed(track []Point) []Point {
	m := len(track)
	if cap(mt.rev) < m {
		mt.rev = make([]Point, m)
	}
	rb := mt.rev[:m]
	for i, p := range track {
		rb[m-1-i] = p
	}
	return rb
}

// lbKim is the O(1) endpoint lower bound on the raw DTW distance:
// every warping path starts by matching the first points and ends by
// matching the last points, so those two cell costs are unavoidable.
// When both tracks are single points the start and end cells coincide
// and are counted once. rev aligns the candidate back to front.
func lbKim(a, b []Point, rev bool) float64 {
	n, m := len(a), len(b)
	b0, bLast := b[0], b[m-1]
	if rev {
		b0, bLast = bLast, b0
	}
	if n == 1 && m == 1 {
		return dist(a[0], b0)
	}
	return dist(a[0], b0) + dist(a[n-1], bLast)
}

// boundingBox returns the axis-aligned bounding box of a track — the
// degenerate Keogh envelope of unconstrained DTW, where the warping
// window spans the whole sequence.
func boundingBox(pts []Point) (lo, hi Point) {
	lo, hi = pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < lo.X {
			lo.X = p.X
		} else if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		} else if p.Y > hi.Y {
			hi.Y = p.Y
		}
	}
	return lo, hi
}

// envelopeSum lower-bounds the raw DTW distance: a warping path covers
// every index of pts, each on a distinct cell, and no match can cost
// less than the distance from the point to the other track's bounding
// box. Order-invariant, so it holds for the reversed alignment too.
func envelopeSum(pts []Point, lo, hi Point) float64 {
	s := 0.0
	for _, p := range pts {
		s += boxDist(p, lo, hi)
	}
	return s
}

// boxDist is the distance from p to the box [lo, hi] (0 inside it).
func boxDist(p, lo, hi Point) float64 {
	var dx, dy float64
	if p.X < lo.X {
		dx = lo.X - p.X
	} else if p.X > hi.X {
		dx = p.X - hi.X
	}
	if p.Y < lo.Y {
		dy = lo.Y - p.Y
	} else if p.Y > hi.Y {
		dy = p.Y - hi.Y
	}
	return math.Sqrt(dx*dx + dy*dy)
}

// abandoningDistance runs the DTW recurrence of Distance over a and b,
// reusing the matcher's scratch rows. It abandons as soon as a
// completed row's minimum, normalized by len(a)+len(b), exceeds bar:
// every warping path crosses every row and step costs are
// non-negative, so the final distance cannot drop back under the bar
// (this holds in float arithmetic too — the accumulation is monotone).
// The returned bool is false when the pass was abandoned.
//
// The inner loop performs operation-for-operation the same arithmetic
// as Distance, so a completed pass is bit-identical to the brute force.
func (mt *Matcher) abandoningDistance(a, b []Point, bar float64) (raw float64, ok bool) {
	n, m := len(a), len(b)
	if cap(mt.prev) < m+1 {
		mt.prev = make([]float64, m+1)
		mt.cur = make([]float64, m+1)
	}
	prev, cur := mt.prev[:m+1], mt.cur[:m+1]
	inf := math.Inf(1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = inf
	}
	nm := float64(n + m)
	mt.Stats.PassesRun++
	for i := 1; i <= n; i++ {
		cur[0] = inf
		rowMin := inf
		mt.Stats.Cells += int64(m)
		for j := 1; j <= m; j++ {
			d := dist(a[i-1], b[j-1])
			v := d + math.Min(prev[j], math.Min(cur[j-1], prev[j-1]))
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin/nm > bar {
			mt.Stats.PassesAbandoned++
			return 0, false
		}
		prev, cur = cur, prev
	}
	mt.prev, mt.cur = prev, cur
	return prev[m], true
}

// DiscBound lower-bounds ReverseInsensitiveDistance(observed, b) for
// every track b that starts at c0, has at most maxLen points (exactly
// maxLen when full is set), and keeps every point within radius of
// c0: the pre-bound of a candidate whose first point is known but
// whose track is not built yet. It is scaled like the matcher's other
// bounds, so it compares directly against the bar.
//
// Proof sketch. A forward warping path matches observed[0] with c0 and
// crosses every later row i on a cell of its own, whose cost is at
// least |observed[i]−c0| − radius by the triangle inequality. The
// reversed alignment ends on c0 instead, so its exact term moves to
// the last observed point. When the track is full, each of its maxLen
// points also sits on a cell of its own, at least dist(c0, bbox) −
// radius from the observed track's bounding box (the envelope bound
// with the candidate's box replaced by the disc). Dividing by
// n+maxLen, the largest path-length normalizer b can have, keeps the
// bound below the normalized distance. radius +Inf leaves only the
// exact endpoint terms.
func DiscBound(observed []Point, c0 Point, radius float64, maxLen int, full bool) float64 {
	n := len(observed)
	// The slack covers the float rounding of the triangle inequality
	// when an observed point sits on the disc's rim.
	r := radius * (1 + 1e-9)
	fwd, rev := dist(observed[0], c0), dist(observed[n-1], c0)
	for i, p := range observed {
		t := math.Max(0, dist(p, c0)-r)
		if i > 0 {
			fwd += t
		}
		if i < n-1 {
			rev += t
		}
	}
	lb := math.Min(fwd, rev)
	if full {
		lo, hi := boundingBox(observed)
		lb = math.Max(lb, float64(maxLen)*math.Max(0, boxDist(c0, lo, hi)-r))
	}
	return lb * lbSafety / float64(n+maxLen)
}
