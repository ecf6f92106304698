package obstruction

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestPixelSkyRoundTrip(t *testing.T) {
	for el := 26.0; el <= 89; el += 7 {
		for az := 0.0; az < 360; az += 13 {
			x, y, ok := pixelOf(PolarPoint{ElevationDeg: el, AzimuthDeg: az})
			if !ok {
				t.Fatalf("pixelOf(%v,%v) not ok", el, az)
			}
			sky, ok := SkyOf(x, y)
			if !ok {
				t.Fatalf("SkyOf(%d,%d) not ok", x, y)
			}
			// One pixel of quantization ~ (65/45) deg elevation; azimuth
			// error grows toward the center.
			if math.Abs(sky.ElevationDeg-el) > 2.5 {
				t.Errorf("el %v -> %v", el, sky.ElevationDeg)
			}
			r := (90 - el) / 65 * PlotRadius
			azTol := units.Rad2Deg(1.5 / math.Max(r, 1))
			if d := angularDistDeg(sky.AzimuthDeg, az); d > math.Max(azTol, 2) {
				t.Errorf("el %v az %v -> %v (tol %v)", el, az, sky.AzimuthDeg, azTol)
			}
		}
	}
}

func TestPixelOfDirections(t *testing.T) {
	// Zenith at the center.
	x, y, ok := pixelOf(PolarPoint{ElevationDeg: 90, AzimuthDeg: 0})
	if !ok || x != center || y != center {
		t.Errorf("zenith at (%d,%d)", x, y)
	}
	// North at the rim is straight up the image.
	x, y, ok = pixelOf(PolarPoint{ElevationDeg: 25, AzimuthDeg: 0})
	if !ok || x != center || y != center-PlotRadius {
		t.Errorf("north rim at (%d,%d)", x, y)
	}
	// East at the rim is to the right.
	x, y, ok = pixelOf(PolarPoint{ElevationDeg: 25, AzimuthDeg: 90})
	if !ok || x != center+PlotRadius || y != center {
		t.Errorf("east rim at (%d,%d)", x, y)
	}
	// South: down. West: left.
	x, y, _ = pixelOf(PolarPoint{ElevationDeg: 25, AzimuthDeg: 180})
	if x != center || y != center+PlotRadius {
		t.Errorf("south rim at (%d,%d)", x, y)
	}
	x, y, _ = pixelOf(PolarPoint{ElevationDeg: 25, AzimuthDeg: 270})
	if x != center-PlotRadius || y != center {
		t.Errorf("west rim at (%d,%d)", x, y)
	}
	// Below the mask: not painted.
	if _, _, ok := pixelOf(PolarPoint{ElevationDeg: 20, AzimuthDeg: 0}); ok {
		t.Error("below-mask direction mapped to a pixel")
	}
}

func TestPaintTrackContinuity(t *testing.T) {
	m := New()
	// A sparse arc across the sky: segments must be connected.
	m.PaintTrack([]PolarPoint{
		{ElevationDeg: 30, AzimuthDeg: 300},
		{ElevationDeg: 60, AzimuthDeg: 330},
		{ElevationDeg: 80, AzimuthDeg: 30},
		{ElevationDeg: 55, AzimuthDeg: 70},
	})
	if m.Count() < 30 {
		t.Errorf("track painted only %d pixels; segments not connected?", m.Count())
	}
	// Connectivity: every painted pixel has a painted 8-neighbour
	// (a 1-px line is 8-connected).
	for _, p := range m.Pixels() {
		if m.Count() == 1 {
			break
		}
		found := false
		for dy := -1; dy <= 1 && !found; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				if m.At(p[0]+dx, p[1]+dy) {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("isolated pixel at %v", p)
		}
	}
}

func TestXORIsolatesNewTrack(t *testing.T) {
	prev := New()
	prev.PaintTrack([]PolarPoint{{ElevationDeg: 40, AzimuthDeg: 10}, {ElevationDeg: 70, AzimuthDeg: 40}})

	cur := prev.Clone()
	newTrack := []PolarPoint{{ElevationDeg: 35, AzimuthDeg: 200}, {ElevationDeg: 60, AzimuthDeg: 240}}
	cur.PaintTrack(newTrack)

	diff := XOR(prev, cur)
	// The isolated pixels must be exactly the ones painted by newTrack.
	want := New()
	want.PaintTrack(newTrack)
	if !diff.Equal(want) {
		t.Error("XOR did not isolate the new trajectory")
	}
}

func TestXORSelfIsEmpty(t *testing.T) {
	m := New()
	m.PaintTrack([]PolarPoint{{ElevationDeg: 40, AzimuthDeg: 10}, {ElevationDeg: 70, AzimuthDeg: 40}})
	if XOR(m, m).Count() != 0 {
		t.Error("XOR with self not empty")
	}
}

func TestXORPropertySymmetric(t *testing.T) {
	f := func(seeds [8]uint8) bool {
		rng := rand.New(rand.NewSource(int64(seeds[0])))
		a, b := New(), New()
		for i := 0; i < 50; i++ {
			a.Set(rng.Intn(Size), rng.Intn(Size))
			b.Set(rng.Intn(Size), rng.Intn(Size))
		}
		return XOR(a, b).Equal(XOR(b, a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrackOrdering(t *testing.T) {
	// Paint a straight-ish arc and verify Track returns points in
	// along-track order (monotone elevation for this arc).
	m := New()
	var pts []PolarPoint
	for i := 0; i <= 20; i++ {
		pts = append(pts, PolarPoint{
			ElevationDeg: 30 + float64(i)*2.5,
			AzimuthDeg:   45,
		})
	}
	m.PaintTrack(pts)
	got := m.Track()
	if len(got) < 10 {
		t.Fatalf("track too short: %d", len(got))
	}
	// Elevation along the ordered track must be monotone (either
	// direction, as PCA axis sign is arbitrary).
	inc, dec := 0, 0
	for i := 1; i < len(got); i++ {
		if got[i].ElevationDeg > got[i-1].ElevationDeg {
			inc++
		} else if got[i].ElevationDeg < got[i-1].ElevationDeg {
			dec++
		}
	}
	if inc > 0 && dec > 0 && min(inc, dec) > len(got)/10 {
		t.Errorf("track order not monotone: %d up, %d down", inc, dec)
	}
}

func TestRecoverParams(t *testing.T) {
	// Fill the full plot disk (two days of tracks) and recover.
	m := New()
	for el := 25.0; el <= 90; el += 0.5 {
		for az := 0.0; az < 360; az += 0.5 {
			m.PaintPoint(PolarPoint{ElevationDeg: el, AzimuthDeg: az})
		}
	}
	p, err := RecoverParams(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.CenterX-center) > 1 || math.Abs(p.CenterY-center) > 1 {
		t.Errorf("recovered center (%v,%v), want (%d,%d)", p.CenterX, p.CenterY, center, center)
	}
	if math.Abs(p.RadiusPx-PlotRadius) > 1 {
		t.Errorf("recovered radius %v, want %d", p.RadiusPx, PlotRadius)
	}
}

func TestRecoverParamsEmpty(t *testing.T) {
	if _, err := RecoverParams(New()); err == nil {
		t.Error("expected error on empty map")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	m := New()
	m.PaintTrack([]PolarPoint{
		{ElevationDeg: 30, AzimuthDeg: 100},
		{ElevationDeg: 80, AzimuthDeg: 150},
	})
	var buf bytes.Buffer
	if err := m.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Error("PNG round trip lost pixels")
	}
}

func TestDecodePNGWrongSize(t *testing.T) {
	var buf bytes.Buffer
	small := image.NewGray(image.Rect(0, 0, 64, 64))
	if err := png.Encode(&buf, small); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePNG(&buf); err == nil {
		t.Error("expected size error")
	}
	if _, err := DecodePNG(bytes.NewReader([]byte("not a png"))); err == nil {
		t.Error("expected decode error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := New()
	for i := 0; i < 400; i++ {
		m.Set(rng.Intn(Size), rng.Intn(Size))
	}
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := New()
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Error("binary round trip mismatch")
	}
	if err := back.UnmarshalBinary(data[:10]); err == nil {
		t.Error("expected length error")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New()
	a.Set(5, 5)
	b := a.Clone()
	b.Set(6, 6)
	if a.At(6, 6) {
		t.Error("clone shares storage")
	}
	if !b.At(5, 5) {
		t.Error("clone missing original pixel")
	}
}

func TestResetClears(t *testing.T) {
	m := New()
	m.Set(3, 3)
	m.Reset()
	if m.Count() != 0 {
		t.Error("reset did not clear")
	}
}

func TestSetOutOfRangeIgnored(t *testing.T) {
	m := New()
	m.Set(-1, 5)
	m.Set(5, Size)
	if m.Count() != 0 {
		t.Error("out-of-range set painted something")
	}
	if m.At(-1, 0) || m.At(0, Size) {
		t.Error("out-of-range At returned true")
	}
}

// angularDistDeg returns the smallest absolute separation between two
// angles in degrees, in [0, 180].
func angularDistDeg(a, b float64) float64 {
	return math.Abs(math.Remainder(a-b, 360))
}

// Equal reports pixel-exact equality.
func (m *Map) Equal(o *Map) bool { return m.w == o.w }

// Pixels returns the coordinates of all set pixels in scan order.
func (m *Map) Pixels() [][2]int {
	var out [][2]int
	m.eachPixel(func(x, y int) { out = append(out, [2]int{x, y}) })
	return out
}

// DecodePNG reads a map from PNG data produced by EncodePNG (or any
// image of the right size; pixels with luma >= 128 count as painted).
func DecodePNG(r io.Reader) (*Map, error) {
	img, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("obstruction: decode png: %w", err)
	}
	b := img.Bounds()
	if b.Dx() != Size || b.Dy() != Size {
		return nil, fmt.Errorf("obstruction: image is %dx%d, want %dx%d", b.Dx(), b.Dy(), Size, Size)
	}
	m := New()
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			c := color.GrayModel.Convert(img.At(b.Min.X+x, b.Min.Y+y)).(color.Gray)
			if c.Y >= 128 {
				m.Set(x, y)
			}
		}
	}
	return m, nil
}
