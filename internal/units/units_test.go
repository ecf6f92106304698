package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDegRadRoundTrip(t *testing.T) {
	for _, deg := range []float64{0, 45, 90, 180, 270, 359.999, -45} {
		if got := Rad2Deg(Deg2Rad(deg)); !almostEqual(got, deg, 1e-12) {
			t.Errorf("round trip %v -> %v", deg, got)
		}
	}
}

func TestWrapDeg360(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {360, 0}, {361, 1}, {-1, 359}, {720.5, 0.5}, {-359, 1},
	}
	for _, c := range cases {
		if got := WrapDeg360(c.in); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("WrapDeg360(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapDeg360PropertyRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true // skip pathological inputs
		}
		d := WrapDeg360(x)
		return d >= 0 && d < 360
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapRadPropertyRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		r := WrapRadTwoPi(x)
		return r >= 0 && r < 2*math.Pi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWrapRadTwoPiMatchesMod pins WrapRadTwoPi's fast paths to the
// math.Mod definition bit for bit: at the path boundaries (±0, ±2π,
// ±4π) and their float neighbours, at random angles in ±1e4, and at
// ±Inf and NaN.
func TestWrapRadTwoPiMatchesMod(t *testing.T) {
	mod := func(rad float64) float64 {
		r := math.Mod(rad, 2*math.Pi)
		if r < 0 {
			r += 2 * math.Pi
		}
		return r
	}
	var xs []float64
	for _, b := range []float64{0, math.Copysign(0, -1), 2 * math.Pi, -2 * math.Pi, 4 * math.Pi, -4 * math.Pi} {
		xs = append(xs, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
	}
	xs = append(xs, math.Inf(1), math.Inf(-1), math.NaN())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*1e4, (rng.Float64()*2-1)*5*math.Pi)
	}
	for _, x := range xs {
		got, want := WrapRadTwoPi(x), mod(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("WrapRadTwoPi(%v) = %v (%#x), math.Mod path = %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Error("Clamp broken")
	}
}

func TestVec3Basics(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, 5, 6}
	if got := v.Add(w); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestVec3Unit(t *testing.T) {
	v := Vec3{3, 4, 0}
	u := v.Unit()
	if !almostEqual(u.Norm(), 1, 1e-12) {
		t.Errorf("unit norm = %v", u.Norm())
	}
	zero := Vec3{}
	if zero.Unit() != zero {
		t.Error("unit of zero should be zero")
	}
}
