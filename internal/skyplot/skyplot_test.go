package skyplot

import (
	"bytes"
	"image"
	"image/png"
	"testing"

	"repro/internal/obstruction"
)

func TestNewSizeValidation(t *testing.T) {
	if _, err := New(10); err == nil {
		t.Error("tiny size accepted")
	}
	p, err := New(128)
	if err != nil {
		t.Fatal(err)
	}
	if p.Image().Bounds().Dx() != 128 {
		t.Error("wrong image size")
	}
}

func countColor(p *Plot, want [3]uint8) int {
	img := p.Image()
	n := 0
	for y := 0; y < img.Bounds().Dy(); y++ {
		for x := 0; x < img.Bounds().Dx(); x++ {
			c := img.RGBAAt(x, y)
			if c.R == want[0] && c.G == want[1] && c.B == want[2] {
				n++
			}
		}
	}
	return n
}

func TestGridDrawn(t *testing.T) {
	p, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	if n := countColor(p, [3]uint8{ColorGrid.R, ColorGrid.G, ColorGrid.B}); n < 500 {
		t.Errorf("grid painted only %d pixels", n)
	}
}

func TestAddTrackPaints(t *testing.T) {
	p, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	track := []obstruction.PolarPoint{
		{ElevationDeg: 30, AzimuthDeg: 300},
		{ElevationDeg: 70, AzimuthDeg: 350},
		{ElevationDeg: 50, AzimuthDeg: 40},
	}
	p.AddTrack(track, ColorObserved)
	if n := countColor(p, [3]uint8{255, 255, 255}); n < 50 {
		t.Errorf("track painted only %d pixels", n)
	}
}

func TestAddSinglePointTrack(t *testing.T) {
	p, _ := New(128)
	p.AddTrack([]obstruction.PolarPoint{{ElevationDeg: 60, AzimuthDeg: 10}}, ColorAccent)
	if n := countColor(p, [3]uint8{ColorAccent.R, ColorAccent.G, ColorAccent.B}); n < 9 {
		t.Errorf("single-point track painted %d pixels", n)
	}
}

func TestTrackGeometryNorthIsUp(t *testing.T) {
	p, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	near := func(v int, want float64) bool { return mathAbs(float64(v)-want) <= 1 }
	// A point due north at the rim must land above the center; due
	// east to the right.
	x, y := p.xy(obstruction.PolarPoint{ElevationDeg: 25, AzimuthDeg: 0})
	if float64(y) >= p.center || !near(x, p.center) {
		t.Errorf("north rim at (%d,%d), center %v", x, y, p.center)
	}
	x, y = p.xy(obstruction.PolarPoint{ElevationDeg: 25, AzimuthDeg: 90})
	if float64(x) <= p.center || !near(y, p.center) {
		t.Errorf("east rim at (%d,%d)", x, y)
	}
	// Zenith at the center.
	x, y = p.xy(obstruction.PolarPoint{ElevationDeg: 90, AzimuthDeg: 123})
	if !near(x, p.center) || !near(y, p.center) {
		t.Errorf("zenith at (%d,%d)", x, y)
	}
}

func TestEncodePNG(t *testing.T) {
	p, err := New(128)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 128 {
		t.Error("decoded size mismatch")
	}
}

func TestValidationPlot(t *testing.T) {
	observed := []obstruction.PolarPoint{
		{ElevationDeg: 40, AzimuthDeg: 10}, {ElevationDeg: 60, AzimuthDeg: 30},
	}
	cands := map[int][]obstruction.PolarPoint{
		1: {{ElevationDeg: 41, AzimuthDeg: 11}, {ElevationDeg: 61, AzimuthDeg: 31}},
		2: {{ElevationDeg: 30, AzimuthDeg: 200}, {ElevationDeg: 35, AzimuthDeg: 230}},
	}
	p, err := Validation(256, observed, cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	if countColor(p, [3]uint8{ColorBest.R, ColorBest.G, ColorBest.B}) == 0 {
		t.Error("winner not drawn")
	}
	if countColor(p, [3]uint8{ColorCandidate.R, ColorCandidate.G, ColorCandidate.B}) == 0 {
		t.Error("losing candidate not drawn")
	}
	if countColor(p, [3]uint8{255, 255, 255}) == 0 {
		t.Error("observed track not drawn")
	}
	if _, err := Validation(8, observed, cands, 1); err == nil {
		t.Error("tiny validation plot accepted")
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Image exposes the rendered image.
func (p *Plot) Image() *image.RGBA { return p.img }
