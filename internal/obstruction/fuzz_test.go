package obstruction

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalBinary checks the compact wire decoder against
// arbitrary input: never panic, and accepted payloads must round-trip.
func FuzzUnmarshalBinary(f *testing.F) {
	m := New()
	m.PaintTrack([]PolarPoint{{ElevationDeg: 40, AzimuthDeg: 10}, {ElevationDeg: 70, AzimuthDeg: 90}})
	raw, _ := m.MarshalBinary()
	f.Add(raw)
	f.Add([]byte{})
	f.Add(make([]byte, 100))
	// A full-length payload whose last byte sets a padding bit past the
	// last pixel: MarshalBinary never writes one, so it must be refused.
	pad := make([]byte, len(raw))
	pad[len(pad)-1] = 0x80
	f.Add(pad)
	f.Fuzz(func(t *testing.T, data []byte) {
		got := New()
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		back, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("accepted payload did not round-trip")
		}
	})
}

// FuzzDecodePNG checks the PNG path tolerates arbitrary bytes.
func FuzzDecodePNG(f *testing.F) {
	var buf bytes.Buffer
	m := New()
	m.Set(10, 10)
	m.EncodePNG(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("not a png"))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodePNG(bytes.NewReader(data)) // must not panic
	})
}
