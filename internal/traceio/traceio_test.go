package traceio

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// encodeObservations writes obs through the streaming encoder, the
// way `repro -save-obs` does.
func encodeObservations(t *testing.T, obs []core.Observation) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder[core.Observation](&buf)
	for i := range obs {
		if err := enc.Encode(&obs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeObservations drains an observation decoder over r, the way
// `repro -load-obs` does.
func decodeObservations(r io.Reader) ([]core.Observation, error) {
	dec := NewDecoder[core.Observation](r)
	var out []core.Observation
	for {
		o, err := dec.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
}

func TestObservationsRoundTrip(t *testing.T) {
	in := []core.Observation{
		{
			Terminal:  "Iowa",
			SlotStart: time.Date(2023, 3, 1, 1, 0, 12, 0, time.UTC),
			LocalHour: 19,
			Available: []core.SatObs{
				{ID: 1, ElevationDeg: 40, AzimuthDeg: 10, AgeYears: 1.5, Sunlit: true,
					LaunchDate: time.Date(2021, 9, 1, 0, 0, 0, 0, time.UTC)},
				{ID: 2, ElevationDeg: 70, AzimuthDeg: 350, AgeYears: 0.5, Sunlit: false},
			},
			ChosenIdx: 1,
		},
		{
			Terminal:  "Madrid",
			SlotStart: time.Date(2023, 3, 1, 1, 0, 27, 0, time.UTC),
			Available: []core.SatObs{{ID: 3, ElevationDeg: 30}},
			ChosenIdx: -1, // identification failed
		},
	}
	out, err := decodeObservations(bytes.NewReader(encodeObservations(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d observations", len(out))
	}
	c, ok := out[0].Chosen()
	if !ok || c.ID != 2 || c.Sunlit {
		t.Errorf("chosen = %+v ok=%v", c, ok)
	}
	if _, ok := out[1].Chosen(); ok {
		t.Error("failed identification restored as chosen")
	}
	if out[0].Available[0].LaunchDate.IsZero() {
		t.Error("launch date dropped")
	}
}

func TestReadObservationsValidation(t *testing.T) {
	bad := `{"Terminal":"x","Available":[{"ID":1}],"ChosenIdx":5}`
	if _, err := decodeObservations(strings.NewReader(bad)); err == nil {
		t.Error("out-of-range chosen index accepted")
	}
	if _, err := decodeObservations(strings.NewReader("{broken")); err == nil {
		t.Error("broken json accepted")
	}
	out, err := decodeObservations(strings.NewReader(""))
	if err != nil || len(out) != 0 {
		t.Errorf("empty input: %v, %d", err, len(out))
	}
}

// TestEndToEndReanalysis proves a persisted campaign reloads into the
// same analysis results — the workflow of the paper's data release.
func TestEndToEndReanalysis(t *testing.T) {
	in := []core.Observation{}
	base := time.Date(2023, 3, 1, 1, 0, 12, 0, time.UTC)
	for i := 0; i < 30; i++ {
		in = append(in, core.Observation{
			Terminal:  "Iowa",
			SlotStart: base.Add(time.Duration(i) * 15 * time.Second),
			LocalHour: 19,
			Available: []core.SatObs{
				{ID: 1, ElevationDeg: 30 + float64(i%20), AzimuthDeg: 100, AgeYears: 2, Sunlit: true},
				{ID: 2, ElevationDeg: 60 + float64(i%20), AzimuthDeg: 350, AgeYears: 1, Sunlit: true},
			},
			ChosenIdx: 1,
		})
	}
	aoe := func(obs []core.Observation) *core.AOEAnalysis {
		acc := core.NewAOEAccumulator(11)
		for _, o := range obs {
			if err := acc.Add(o); err != nil {
				t.Fatal(err)
			}
		}
		a, err := acc.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	out, err := decodeObservations(bytes.NewReader(encodeObservations(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := aoe(in), aoe(out)
	if a1.MedianLiftDeg != a2.MedianLiftDeg {
		t.Errorf("analysis changed after round trip: %v != %v", a1.MedianLiftDeg, a2.MedianLiftDeg)
	}
}
