package predict

import (
	"encoding/json"
	"testing"
)

// TestWireBytes pins the exact JSON of the predict and observe
// messages, so a change to the Go types behind them cannot change what
// predictd and its clients put on the wire.
func TestWireBytes(t *testing.T) {
	sats := []SatParam{
		{AzimuthDeg: 12.5, ElevationDeg: 61.25, AgeYears: 1.75, Sunlit: true},
		{AzimuthDeg: 270, ElevationDeg: 30, AgeYears: 0.5},
	}
	const satsJSON = `[{"az":12.5,"el":61.25,"age_years":1.75,"sunlit":true},{"az":270,"el":30,"age_years":0.5,"sunlit":false}]`
	cases := []struct {
		name string
		msg  any
		want string
	}{
		{"predict request", PredictRequest{LocalHour: 7, Sats: sats, K: 3},
			`{"local_hour":7,"sats":` + satsJSON + `,"k":3}`},
		{"predict request, default k", PredictRequest{LocalHour: 7, Sats: sats},
			`{"local_hour":7,"sats":` + satsJSON + `}`},
		{"observe request", ObserveRequest{LocalHour: 23, Sats: sats, ChosenIdx: 1},
			`{"local_hour":23,"sats":` + satsJSON + `,"chosen_idx":1}`},
		{"observe request, unserved slot", ObserveRequest{LocalHour: 0, Sats: sats, ChosenIdx: -1},
			`{"local_hour":0,"sats":` + satsJSON + `,"chosen_idx":-1}`},
		{"observe result", ObserveResult{Scored: true, Rank: 2, RecentTop1: 0.25, RecentTopK: 0.75, RefTop1: 0.5,
			Drift: true, DriftEvents: 1, Refits: 3, ModelVersion: 4},
			`{"scored":true,"rank":2,"recent_top1":0.25,"recent_topk":0.75,"ref_top1":0.5,"drift":true,"drift_events":1,"refits":3,"model_version":4}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.msg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	// Decoding the pinned bytes gives the messages back. A client that
	// still sends the retired "terminal" field is read the same way.
	for _, raw := range []string{cases[2].want, `{"terminal":"iowa",` + cases[2].want[1:]} {
		var req ObserveRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatal(err)
		}
		if req.LocalHour != 23 || req.ChosenIdx != 1 || len(req.Sats) != 2 || req.Sats[0] != sats[0] || req.Sats[1] != sats[1] {
			t.Errorf("observe request round trip of %s: %+v", raw, req)
		}
	}
	var res ObserveResult
	if err := json.Unmarshal([]byte(cases[4].want), &res); err != nil {
		t.Fatal(err)
	}
	if res != cases[4].msg.(ObserveResult) {
		t.Errorf("observe result round trip: %+v", res)
	}
}
