package obstruction

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/color"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// boolMap is the obstruction map as one bool per pixel, the
// representation Map had before it became a bitset. It is the oracle
// every Map operation is held to, bit for bit.
type boolMap struct {
	pix [Size * Size]bool
}

func (m *boolMap) set(x, y int) {
	if x < 0 || x >= Size || y < 0 || y >= Size {
		return
	}
	m.pix[y*Size+x] = true
}

func (m *boolMap) reset() { m.pix = [Size * Size]bool{} }

func (m *boolMap) paintTrack(points []PolarPoint) {
	var prevX, prevY int
	havePrev := false
	for _, p := range points {
		x, y, ok := pixelOf(p)
		if !ok {
			havePrev = false
			continue
		}
		if havePrev {
			m.line(prevX, prevY, x, y)
		} else {
			m.set(x, y)
		}
		prevX, prevY = x, y
		havePrev = true
	}
}

func (m *boolMap) line(x0, y0, x1, y1 int) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		m.set(x0, y0)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func boolXOR(prev, cur *boolMap) *boolMap {
	out := &boolMap{}
	for i := range out.pix {
		out.pix[i] = prev.pix[i] != cur.pix[i]
	}
	return out
}

func (m *boolMap) count() int {
	n := 0
	for _, p := range m.pix {
		if p {
			n++
		}
	}
	return n
}

func (m *boolMap) pixels() [][2]int {
	var out [][2]int
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			if m.pix[y*Size+x] {
				out = append(out, [2]int{x, y})
			}
		}
	}
	return out
}

func (m *boolMap) track() []PolarPoint {
	px := m.pixels()
	if len(px) == 0 {
		return nil
	}
	var mx, my float64
	for _, p := range px {
		mx += float64(p[0])
		my += float64(p[1])
	}
	n := float64(len(px))
	mx /= n
	my /= n
	var sxx, sxy, syy float64
	for _, p := range px {
		dx := float64(p[0]) - mx
		dy := float64(p[1]) - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	theta := 0.5 * math.Atan2(2*sxy, sxx-syy)
	ux, uy := math.Cos(theta), math.Sin(theta)
	type proj struct {
		t float64
		p [2]int
	}
	ps := make([]proj, len(px))
	for i, p := range px {
		ps[i] = proj{t: (float64(p[0])-mx)*ux + (float64(p[1])-my)*uy, p: p}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].t < ps[j].t })
	out := make([]PolarPoint, 0, len(ps))
	for _, pr := range ps {
		if sky, ok := SkyOf(pr.p[0], pr.p[1]); ok {
			out = append(out, sky)
		}
	}
	return out
}

func (m *boolMap) recoverParams() (Params, error) {
	minX, minY := Size, Size
	maxX, maxY := -1, -1
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			if m.pix[y*Size+x] {
				minX, maxX = min(minX, x), max(maxX, x)
				minY, maxY = min(minY, y), max(maxY, y)
			}
		}
	}
	if maxX < 0 {
		return Params{}, fmt.Errorf("obstruction: empty map")
	}
	return Params{
		CenterX:  float64(minX+maxX) / 2,
		CenterY:  float64(minY+maxY) / 2,
		RadiusPx: (float64(maxX-minX) + float64(maxY-minY)) / 4,
	}, nil
}

func (m *boolMap) marshalBinary() []byte {
	out := make([]byte, (Size*Size+7)/8)
	for i, p := range m.pix {
		if p {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

func (m *boolMap) image() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, Size, Size))
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			if m.pix[y*Size+x] {
				img.SetGray(x, y, color.Gray{Y: 255})
			}
		}
	}
	return img
}

// sameTrack compares two tracks bit for bit, order included.
func sameTrack(a, b []PolarPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].ElevationDeg) != math.Float64bits(b[i].ElevationDeg) ||
			math.Float64bits(a[i].AzimuthDeg) != math.Float64bits(b[i].AzimuthDeg) {
			return false
		}
	}
	return true
}

// checkAgainstOracle requires every read of m to equal the oracle's.
func checkAgainstOracle(t *testing.T, what string, m *Map, o *boolMap) {
	t.Helper()
	if got, want := m.Count(), o.count(); got != want {
		t.Fatalf("%s: Count = %d, oracle %d", what, got, want)
	}
	gotPx, wantPx := m.Pixels(), o.pixels()
	if len(gotPx) != len(wantPx) {
		t.Fatalf("%s: %d pixels, oracle %d", what, len(gotPx), len(wantPx))
	}
	for i := range gotPx {
		if gotPx[i] != wantPx[i] {
			t.Fatalf("%s: pixel %d = %v, oracle %v", what, i, gotPx[i], wantPx[i])
		}
	}
	var tr Tracker
	if !sameTrack(m.Track(), o.track()) || !sameTrack(tr.AppendTrack(nil, m), o.track()) {
		t.Fatalf("%s: Track differs from the oracle's", what)
	}
	gp, gerr := RecoverParams(m)
	wp, werr := o.recoverParams()
	if gp != wp || (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: RecoverParams = %v, %v; oracle %v, %v", what, gp, gerr, wp, werr)
	}
	raw, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, o.marshalBinary()) {
		t.Fatalf("%s: MarshalBinary differs from the oracle's", what)
	}
	if !bytes.Equal(m.Image().Pix, o.image().Pix) {
		t.Fatalf("%s: Image differs from the oracle's", what)
	}
}

// FuzzMapMatchesBoolOracle applies a random sequence of Set, PaintTrack
// and Reset operations to two maps and to two oracle maps, and requires
// the bitset's XOR, Pixels, Track (order included), Count,
// RecoverParams, MarshalBinary and Image to equal the oracle's.
func FuzzMapMatchesBoolOracle(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 0, 1})
	f.Add(int64(7), []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(int64(3), []byte{0, 0, 2, 3, 1, 4})
	f.Add(int64(11), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		var maps [2]*Map
		var oracles [2]*boolMap
		for i := range maps {
			maps[i], oracles[i] = New(), &boolMap{}
		}
		for _, op := range ops {
			k := int(op>>7) & 1 // which map
			switch op % 4 {
			case 0: // a pixel, out of range included
				x, y := rng.Intn(Size+4)-2, rng.Intn(Size+4)-2
				maps[k].Set(x, y)
				oracles[k].set(x, y)
			case 1, 3: // a track, below-mask points included
				pts := make([]PolarPoint, 1+rng.Intn(16))
				for i := range pts {
					pts[i] = PolarPoint{ElevationDeg: 15 + rng.Float64()*80, AzimuthDeg: rng.Float64() * 360}
				}
				maps[k].PaintTrack(pts)
				oracles[k].paintTrack(pts)
			case 2:
				maps[k].Reset()
				oracles[k].reset()
			}
		}
		for i := range maps {
			checkAgainstOracle(t, fmt.Sprintf("map %d", i), maps[i], oracles[i])
		}
		checkAgainstOracle(t, "XOR", XOR(maps[0], maps[1]), boolXOR(oracles[0], oracles[1]))
		dst := maps[0].Clone()
		checkAgainstOracle(t, "XORInto aliasing prev", XORInto(dst, dst, maps[1]), boolXOR(oracles[0], oracles[1]))
	})
}

// TestTrackTiesMatchOracle: pixel blocks symmetric about both axes
// have a zero covariance term, so their projections tie by whole rows
// or columns, and the order of tied points is the sort algorithm's
// own. Track's order must still be the oracle's sort.Slice order.
func TestTrackTiesMatchOracle(t *testing.T) {
	for w := 1; w <= 24; w++ {
		for h := 1; h <= 24; h += 3 {
			m, o := New(), &boolMap{}
			for y := center - h/2; y < center-h/2+h; y++ {
				for x := center - w/2; x < center-w/2+w; x++ {
					m.Set(x, y)
					o.set(x, y)
				}
			}
			if !sameTrack(m.Track(), o.track()) {
				t.Fatalf("%dx%d block: Track order differs from the oracle's", w, h)
			}
		}
	}
}

// TestMarshalIsLittleEndianWords: the wire format is the bitset's words
// in little-endian byte order, cut after the byte holding the last
// pixel.
func TestMarshalIsLittleEndianWords(t *testing.T) {
	m := New()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		m.Set(rng.Intn(Size), rng.Intn(Size))
	}
	m.Set(Size-1, Size-1)
	raw, _ := m.MarshalBinary()
	words := make([]byte, 8*numWords)
	for i, w := range m.w {
		binary.LittleEndian.PutUint64(words[8*i:], w)
	}
	if !bytes.Equal(raw, words[:wireBytes]) || len(raw) != wireBytes {
		t.Fatal("MarshalBinary is not the words' little-endian bytes")
	}
	for _, b := range words[wireBytes:] {
		if b != 0 {
			t.Fatal("bits past the last pixel are set")
		}
	}
}

// BenchmarkXORTrack times the engine's per-slot §4 extraction: XOR two
// consecutive maps into a scratch map and append the diff's track into
// a scratch slice.
func BenchmarkXORTrack(b *testing.B) {
	prev := New()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		el, az := 30+rng.Float64()*55, rng.Float64()*360
		prev.PaintTrack([]PolarPoint{{ElevationDeg: el, AzimuthDeg: az}, {ElevationDeg: el + 5, AzimuthDeg: az + 8}})
	}
	cur := prev.Clone()
	cur.PaintTrack([]PolarPoint{{ElevationDeg: 40, AzimuthDeg: 200}, {ElevationDeg: 62, AzimuthDeg: 231}})
	var diff Map
	var tr Tracker
	var track []PolarPoint
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		track = tr.AppendTrack(track[:0], XORInto(&diff, prev, cur))
	}
	if len(track) < 2 {
		b.Fatalf("track of %d points", len(track))
	}
}
