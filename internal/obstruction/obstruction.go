// Package obstruction implements the Starlink dish obstruction map:
// a 123×123 1-bit image on which the terminal paints the sky-track of
// every satellite it has connected to since its last reset. The image
// is a polar plot — the radius encodes angle of elevation from 90° at
// the center to 25° at the rim (45 px out), and the angle encodes
// azimuth clockwise from north.
//
// The paper's §4 methodology lives here: painting tracks with
// overwrite-until-reset semantics, XOR-ing consecutive snapshots to
// isolate the newest trajectory, recovering the plot parameters from a
// filled map (bounding-box method), and converting pixels back to
// (elevation, azimuth) pairs.
package obstruction

import (
	"bytes"
	"cmp"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/units"
)

// Geometry of the gRPC obstruction map, as recovered in the paper.
const (
	// Size is the image width and height in pixels.
	Size = 123
	// PlotRadius is the radius of the contained polar plot in pixels.
	PlotRadius = 45
	// MaxElevDeg is the elevation at the plot center.
	MaxElevDeg = 90
	// MinElevDeg is the elevation at the plot rim (the terminal's
	// visibility mask).
	MinElevDeg = 25
)

// center of the polar plot, 0-indexed. The paper reports the center as
// 62×62 counting pixels from 1; 0-indexed that is (61, 61).
const center = (Size - 1) / 2

// Bitset layout: pixel (x, y) is bit y·Size+x, so walking the set bits
// in ascending order is the image's row-major scan order. The bits past
// Size·Size in the last word are always zero.
const (
	numPixels = Size * Size
	numWords  = (numPixels + 63) / 64
	// wireBytes is the MarshalBinary length: the words' little-endian
	// bytes, cut after the byte holding the last pixel.
	wireBytes = (numPixels + 7) / 8
	// tailBits is how many bits of the last wire byte are pixels.
	tailBits = numPixels - 8*(wireBytes-1)
)

// Map is one obstruction map snapshot, one bit per pixel. Pixels are
// addressed (x, y) with y growing downward (image convention); north
// is up. A Map is a plain value of about 1.9 KB: copying one copies the
// image.
type Map struct {
	w [numWords]uint64
}

// New returns an empty map (fresh after terminal reset).
func New() *Map { return &Map{} }

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	out := *m
	return &out
}

// Reset clears every pixel, as a terminal reboot does.
func (m *Map) Reset() { m.w = [numWords]uint64{} }

// At reports whether pixel (x, y) is set. Out-of-range is false.
func (m *Map) At(x, y int) bool {
	if x < 0 || x >= Size || y < 0 || y >= Size {
		return false
	}
	i := y*Size + x
	return m.w[i/64]&(1<<(i%64)) != 0
}

// Set marks pixel (x, y). Out-of-range is ignored.
func (m *Map) Set(x, y int) {
	if x < 0 || x >= Size || y < 0 || y >= Size {
		return
	}
	i := y*Size + x
	m.w[i/64] |= 1 << (i % 64)
}

// Count returns the number of set pixels.
func (m *Map) Count() int {
	n := 0
	for _, w := range m.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// eachPixel calls f with every set pixel, in scan order.
func (m *Map) eachPixel(f func(x, y int)) {
	for wi, w := range m.w {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			f(i%Size, i/Size)
			w &= w - 1
		}
	}
}

// PolarPoint is a sky direction in terminal-topocentric coordinates.
type PolarPoint struct {
	ElevationDeg float64
	AzimuthDeg   float64
}

// pixelOf converts a sky direction to image coordinates. ok is false
// when the direction is outside the plot (below the mask).
func pixelOf(p PolarPoint) (x, y int, ok bool) {
	if p.ElevationDeg < MinElevDeg || p.ElevationDeg > MaxElevDeg {
		return 0, 0, false
	}
	r := (MaxElevDeg - p.ElevationDeg) / (MaxElevDeg - MinElevDeg) * PlotRadius
	az := units.Deg2Rad(p.AzimuthDeg)
	fx := float64(center) + r*math.Sin(az)
	fy := float64(center) - r*math.Cos(az)
	return int(math.Round(fx)), int(math.Round(fy)), true
}

// SkyOf converts a pixel back to a sky direction; ok is false for
// pixels outside the plot disk.
func SkyOf(x, y int) (PolarPoint, bool) {
	dx := float64(x - center)
	dy := float64(y - center)
	r := math.Hypot(dx, dy)
	if r > PlotRadius+0.5 {
		return PolarPoint{}, false
	}
	el := MaxElevDeg - r/PlotRadius*(MaxElevDeg-MinElevDeg)
	az := units.Rad2Deg(math.Atan2(dx, -dy))
	return PolarPoint{ElevationDeg: el, AzimuthDeg: units.WrapDeg360(az)}, true
}

// PaintPoint marks the pixel under a sky direction (no-op below the
// mask).
func (m *Map) PaintPoint(p PolarPoint) {
	if x, y, ok := pixelOf(p); ok {
		m.Set(x, y)
	}
}

// PaintTrack paints a polyline through consecutive sky samples,
// connecting them with Bresenham segments so a sampled trajectory
// appears as the continuous stroke the dish records.
func (m *Map) PaintTrack(points []PolarPoint) {
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
			m.Set(x, y)
		}
		prevX, prevY = x, y
		havePrev = true
	}
}

// line draws with the classic integer Bresenham algorithm.
func (m *Map) line(x0, y0, x1, y1 int) {
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
		m.Set(x0, y0)
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

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// XOR returns the symmetric difference of two snapshots. Because the
// dish only ever adds pixels between resets, XOR(prev, cur) isolates
// exactly the pixels painted since prev — the trajectory of the
// satellite serving the terminal in the newest slot (paper Fig. 3d).
func XOR(prev, cur *Map) *Map { return XORInto(&Map{}, prev, cur) }

// XORInto stores XOR(prev, cur) in dst and returns dst. dst may be
// prev or cur.
func XORInto(dst, prev, cur *Map) *Map {
	for i := range dst.w {
		dst.w[i] = prev.w[i] ^ cur.w[i]
	}
	return dst
}

// Track converts the set pixels to sky directions ordered along the
// trajectory. Pixel sets are unordered, so the points are sorted by
// their projection onto the principal axis of the point cloud, which
// recovers the along-track order for the short, nearly straight arcs
// a 15-second slot paints.
func (m *Map) Track() []PolarPoint {
	var t Tracker
	return t.AppendTrack(nil, m)
}

// Tracker holds Track's working memory, so a caller that extracts a
// track every slot allocates nothing once its buffers have grown. The
// zero value is ready to use; a Tracker is not safe for concurrent
// use.
type Tracker struct {
	ps []proj
}

// proj is one set pixel and its position along the principal axis.
type proj struct {
	t    float64
	x, y int
}

// AppendTrack appends m's Track to dst and returns the extended slice.
func (tr *Tracker) AppendTrack(dst []PolarPoint, m *Map) []PolarPoint {
	ps := tr.ps[:0]
	m.eachPixel(func(x, y int) { ps = append(ps, proj{x: x, y: y}) })
	tr.ps = ps
	if len(ps) == 0 {
		return dst
	}
	// Principal axis via the 2x2 covariance eigenvector.
	var mx, my float64
	for _, p := range ps {
		mx += float64(p.x)
		my += float64(p.y)
	}
	n := float64(len(ps))
	mx /= n
	my /= n
	var sxx, sxy, syy float64
	for _, p := range ps {
		dx := float64(p.x) - mx
		dy := float64(p.y) - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	// Leading eigenvector of [[sxx sxy][sxy syy]].
	theta := 0.5 * math.Atan2(2*sxy, sxx-syy)
	ux, uy := math.Cos(theta), math.Sin(theta)
	for i := range ps {
		ps[i].t = (float64(ps[i].x)-mx)*ux + (float64(ps[i].y)-my)*uy
	}
	// Tied projections keep the order the sort itself gives them. They
	// are finite, so cmp.Compare orders them as < does, and SortFunc
	// makes the comparisons and swaps of the sort.Slice call that the
	// recorded goldens came from (TestTrackTiesMatchOracle).
	slices.SortFunc(ps, func(a, b proj) int { return cmp.Compare(a.t, b.t) })

	for _, p := range ps {
		if sky, ok := SkyOf(p.x, p.y); ok {
			dst = append(dst, sky)
		}
	}
	return dst
}

// Params are the polar-plot parameters recovered from a filled map —
// the quantities the paper derives by leaving a terminal up for two
// days (§4, "Uncovering gRPC obstruction map parameters").
type Params struct {
	CenterX, CenterY float64
	RadiusPx         float64
}

// RecoverParams estimates the plot center and radius from the bounding
// box of the set pixels. On a map whose sky coverage has filled the
// plot disk, the bounding box edges touch the disk, so its center and
// half-extent recover the plot geometry.
func RecoverParams(m *Map) (Params, error) {
	minX, minY := Size, Size
	maxX, maxY := -1, -1
	m.eachPixel(func(x, y int) {
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	})
	if maxX < 0 {
		return Params{}, fmt.Errorf("obstruction: empty map")
	}
	return Params{
		CenterX:  float64(minX+maxX) / 2,
		CenterY:  float64(minY+maxY) / 2,
		RadiusPx: (float64(maxX-minX) + float64(maxY-minY)) / 4,
	}, nil
}

// Image renders the map as a grayscale image (white = painted), the
// same rendering the dish returns over gRPC.
func (m *Map) Image() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, Size, Size))
	m.eachPixel(func(x, y int) { img.SetGray(x, y, color.Gray{Y: 255}) })
	return img
}

// EncodePNG writes the map as a PNG.
func (m *Map) EncodePNG(w io.Writer) error {
	if err := png.Encode(w, m.Image()); err != nil {
		return fmt.Errorf("obstruction: encode png: %w", err)
	}
	return nil
}

// MarshalBinary implements a compact 1-bit wire encoding used by the
// dishrpc protocol: pixel i = y·Size+x is bit i%8 of byte i/8, which is
// the map's words in little-endian byte order.
func (m *Map) MarshalBinary() ([]byte, error) {
	out := make([]byte, wireBytes)
	for i := range out {
		out[i] = byte(m.w[i/8] >> (8 * (i % 8)))
	}
	return out, nil
}

// UnmarshalBinary decodes the MarshalBinary format. It rejects a
// payload that sets any padding bit after the last pixel, which
// MarshalBinary never writes.
func (m *Map) UnmarshalBinary(data []byte) error {
	if len(data) != wireBytes {
		return fmt.Errorf("obstruction: binary map is %d bytes, want %d", len(data), wireBytes)
	}
	if data[wireBytes-1]>>tailBits != 0 {
		return fmt.Errorf("obstruction: binary map sets padding bits (last byte %#02x)", data[wireBytes-1])
	}
	m.Reset()
	for i, b := range data {
		m.w[i/8] |= uint64(b) << (8 * (i % 8))
	}
	return nil
}

// String renders a debug view (rows of '.' and '#'), useful in test
// failures. Kept small: every second pixel.
func (m *Map) String() string {
	var buf bytes.Buffer
	for y := 0; y < Size; y += 2 {
		for x := 0; x < Size; x += 2 {
			if m.At(x, y) || m.At(x+1, y) || m.At(x, y+1) || m.At(x+1, y+1) {
				buf.WriteByte('#')
			} else {
				buf.WriteByte('.')
			}
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}
