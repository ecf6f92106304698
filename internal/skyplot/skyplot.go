// Package skyplot renders polar sky plots as PNG images — the visual
// artifact the paper's authors used to manually validate DTW
// identifications (§4: "we plot the trajectories of all available
// satellites on a polar plot and visually compare them to the isolated
// trajectory"). The plot convention matches the obstruction map:
// zenith at the center, the 25° elevation mask at the rim, azimuth
// clockwise from north (up).
package skyplot

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/obstruction"
	"repro/internal/units"
)

// Standard series colors.
var (
	ColorGrid      = color.RGBA{60, 60, 60, 255}
	ColorObserved  = color.RGBA{255, 255, 255, 255}
	ColorBest      = color.RGBA{80, 220, 120, 255}
	ColorCandidate = color.RGBA{130, 130, 130, 255}
	ColorAccent    = color.RGBA{240, 120, 80, 255}
)

// Plot is a polar sky plot under construction.
type Plot struct {
	img    *image.RGBA
	size   int
	center float64
	radius float64
	// MinElevDeg is the rim elevation. Default 25 (the dish mask).
	minElev float64
}

// New creates a square plot of the given pixel size (minimum 64).
func New(size int) (*Plot, error) {
	if size < 64 {
		return nil, fmt.Errorf("skyplot: size %d too small (min 64)", size)
	}
	p := &Plot{
		img:     image.NewRGBA(image.Rect(0, 0, size, size)),
		size:    size,
		center:  float64(size-1) / 2,
		radius:  float64(size)/2 - 8,
		minElev: 25,
	}
	// Dark background.
	for i := range p.img.Pix {
		switch i % 4 {
		case 3:
			p.img.Pix[i] = 255
		default:
			p.img.Pix[i] = 16
		}
	}
	p.drawGrid()
	return p, nil
}

// drawGrid paints elevation rings every 20° and the four cardinal
// spokes.
func (p *Plot) drawGrid() {
	for el := p.minElev; el < 90; el += 20 {
		p.circle(p.rOf(el), ColorGrid)
	}
	p.circle(p.rOf(p.minElev), ColorGrid)
	for az := 0.0; az < 360; az += 90 {
		x1, y1 := p.xy(obstruction.PolarPoint{ElevationDeg: 90, AzimuthDeg: az})
		x2, y2 := p.xy(obstruction.PolarPoint{ElevationDeg: p.minElev, AzimuthDeg: az})
		p.line(x1, y1, x2, y2, ColorGrid)
	}
	// North marker: a short double line outside the rim at azimuth 0.
	xa, ya := p.xyRaw(p.radius+2, 0)
	xb, yb := p.xyRaw(p.radius+6, 0)
	p.line(xa, ya, xb, yb, ColorAccent)
}

// rOf maps elevation to pixel radius.
func (p *Plot) rOf(elevDeg float64) float64 {
	e := units.Clamp(elevDeg, p.minElev, 90)
	return (90 - e) / (90 - p.minElev) * p.radius
}

// xy maps a sky direction to pixel coordinates.
func (p *Plot) xy(pt obstruction.PolarPoint) (int, int) {
	return p.xyRaw(p.rOf(pt.ElevationDeg), pt.AzimuthDeg)
}

func (p *Plot) xyRaw(r, azDeg float64) (int, int) {
	az := units.Deg2Rad(azDeg)
	return int(math.Round(p.center + r*math.Sin(az))),
		int(math.Round(p.center - r*math.Cos(az)))
}

func (p *Plot) set(x, y int, c color.RGBA) {
	if x < 0 || x >= p.size || y < 0 || y >= p.size {
		return
	}
	p.img.SetRGBA(x, y, c)
}

// circle draws a 1-px ring of radius r around the center.
func (p *Plot) circle(r float64, c color.RGBA) {
	steps := int(2*math.Pi*r) + 8
	for i := 0; i < steps; i++ {
		th := 2 * math.Pi * float64(i) / float64(steps)
		p.set(int(math.Round(p.center+r*math.Cos(th))), int(math.Round(p.center+r*math.Sin(th))), c)
	}
}

// line draws with Bresenham.
func (p *Plot) line(x0, y0, x1, y1 int, c color.RGBA) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		p.set(x0, y0, c)
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

// AddTrack draws a connected trajectory. Below-mask points clamp to
// the rim (the real sky-track continues below the mask; clamping keeps
// the arc visually continuous).
func (p *Plot) AddTrack(track []obstruction.PolarPoint, c color.RGBA) {
	for i := 1; i < len(track); i++ {
		x0, y0 := p.xy(track[i-1])
		x1, y1 := p.xy(track[i])
		p.line(x0, y0, x1, y1, c)
	}
	if len(track) == 1 {
		p.AddPoint(track[0], c)
	}
}

// AddPoint draws a 3×3 marker at a sky direction.
func (p *Plot) AddPoint(pt obstruction.PolarPoint, c color.RGBA) {
	x, y := p.xy(pt)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			p.set(x+dx, y+dy, c)
		}
	}
}

// EncodePNG writes the plot.
func (p *Plot) EncodePNG(w io.Writer) error {
	if err := png.Encode(w, p.img); err != nil {
		return fmt.Errorf("skyplot: encode: %w", err)
	}
	return nil
}

// Validation renders the paper's manual-check view in one call: the
// observed (XOR-isolated) trajectory in white, every candidate track
// in gray, and the DTW winner in green.
func Validation(size int, observed []obstruction.PolarPoint, candidates map[int][]obstruction.PolarPoint, bestID int) (*Plot, error) {
	p, err := New(size)
	if err != nil {
		return nil, err
	}
	for id, track := range candidates {
		if id == bestID {
			continue // draw the winner last, on top
		}
		p.AddTrack(track, ColorCandidate)
	}
	if best, ok := candidates[bestID]; ok {
		p.AddTrack(best, ColorBest)
	}
	p.AddTrack(observed, ColorObserved)
	return p, nil
}
