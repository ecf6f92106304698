package dishrpc

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecoderMatchesUnmarshal: one Decoder reading two documents in
// turn, each into the request envelope and into predict's request
// shape, agrees with json.Unmarshal into a fresh value on every input:
// the same accept or reject, the same error text, and the same value
// but where data follows the document's first value.
func FuzzDecoderMatchesUnmarshal(f *testing.F) {
	big := `{"id":1,"method":"` + strings.Repeat("x", 70<<10) + `"}`
	for _, seed := range [][2]string{
		{`{"id":1,"method":"topk","params":{"local_hour":3,"sats":[{"az":1,"el":2}],"k":2}}`, `{"id":2,"method":"stats"}`},
		// json.Decoder.More reports false after each value: it is no
		// trailing-data check.
		{`{"a":1}]`, `{"a":1}}`},
		// A json.Decoder says EOF and unexpected EOF here.
		{``, `{"id":1`},
		{" \n", `{"local_hour":12,"sats":[{"az":1`},
		{big, `{"id":3}`},
		// The decoder stops reading before the trailing space does.
		{`{"method":"` + strings.Repeat("y", 600) + `"}` + strings.Repeat(" ", 2000), `{"id":3}`},
		{`{"id":4} `, `1 2`},
		{"\t7\r\n", `{"id":8}{"id":9}`},
		{`null`, `{"id":"5","params":[1,2]}`},
		{`{"local_hour":"x","sats":[{"az":1},{"el":"y"}],"chosen_idx":2}`, `{"sats":null}`},
		{`{"id":1e99}`, `{"method":"\ud800"}`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var d Decoder
		for _, data := range [][]byte{first, second} {
			decodesAsUnmarshal[request](t, &d, data)
			decodesAsUnmarshal[predictParams](t, &d, data)
		}
	})
}

// decodesAsUnmarshal fails unless d decodes data into a fresh T as
// json.Unmarshal does.
func decodesAsUnmarshal[T any](t *testing.T, d *Decoder, data []byte) {
	t.Helper()
	var got, want T
	gotErr, wantErr := d.Decode(data, &got), json.Unmarshal(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T from %q: Decode error %v, Unmarshal error %v", got, data, gotErr, wantErr)
	}
	if wantErr != nil && strings.HasSuffix(wantErr.Error(), "after top-level value") {
		return // Decode may leave the first value in got
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q: Decode gave %+v, Unmarshal %+v", got, data, got, want)
	}
}
