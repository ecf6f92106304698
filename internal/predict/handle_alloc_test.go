//go:build !race

// The race detector makes sync.Pool drop a random share of the
// scratches the handlers put back, and each one dropped is allocated
// again: this pin holds only without it.

package predict

import (
	"encoding/json"
	"testing"
)

// TestPredictHandleAllocs pins the RPC handlers' allocations on a warm
// service with no refit due. The params decode into the pooled
// scratch's reused request, so all that is left is the result: topk's
// two slices and the boxed PredictResult, observe's boxed ScoreUpdate.
// A count above the pin is a decode regression; one below it means
// the pin should come down.
func TestPredictHandleAllocs(t *testing.T) {
	s, sats, _ := benchService(t)
	topk, err := json.Marshal(PredictRequest{LocalHour: 12, Sats: sats})
	if err != nil {
		t.Fatal(err)
	}
	observe, err := json.Marshal(ObserveRequest{LocalHour: 12, Sats: sats, ChosenIdx: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method string
		params json.RawMessage
		want   float64
	}{
		{"topk", topk, 3},
		{"observe", observe, 1},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.Handle(tc.method, tc.params); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s handler = %v allocs/op, pinned at %v", tc.method, allocs, tc.want)
		}
	}
	if st := s.Stats(); st.Refits != 1 {
		t.Errorf("%d refits, want only the warm-up fit", st.Refits)
	}
}
