package dishrpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

// rawFrame reads one frame off r, header included, without decoding it.
func rawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return append(hdr[:], body...), nil
}

// frameOf is body behind its big-endian length.
func frameOf(body string) string {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	return string(hdr[:]) + body
}

// startRecordingPeer accepts one connection and answers every request
// with the result "ok", handing each request frame it read, raw, to
// the returned channel.
func startRecordingPeer(t *testing.T) (net.Addr, <-chan []byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	frames := make(chan []byte, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			raw, err := rawFrame(conn)
			if err != nil {
				return
			}
			frames <- raw
			var req request
			if err := json.Unmarshal(raw[4:], &req); err != nil {
				return
			}
			if err := writeFrame(conn, &response{ID: req.ID, Result: json.RawMessage(`"ok"`)}); err != nil {
				return
			}
		}
	}()
	return ln.Addr(), frames
}

// frameParams is a request payload whose string needs JSON's HTML and
// line-separator escapes.
type frameParams struct {
	S string  `json:"s"`
	N []int   `json:"n"`
	F float64 `json:"f"`
}

// TestFrameBytes pins the raw frames both ends put on the wire: the
// client's requests, with and without params, and the server's result,
// error, unknown-method and oversize replies.
func TestFrameBytes(t *testing.T) {
	t.Run("requests", func(t *testing.T) {
		addr, frames := startRecordingPeer(t)
		c, err := Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var got string
		if err := c.Call("topk", frameParams{S: "a<b&c\u2028d>", N: []int{1, -2}, F: 0.1}, &got); err != nil || got != "ok" {
			t.Fatalf("call with params = %q, %v", got, err)
		}
		if err := c.Call("get_status", nil, nil); err != nil {
			t.Fatalf("call without params: %v", err)
		}
		for i, want := range []string{
			`{"id":1,"method":"topk","params":{"s":"a\u003cb\u0026c\u2028d\u003e","n":[1,-2],"f":0.1}}`,
			`{"id":2,"method":"get_status"}`,
		} {
			if raw := string(<-frames); raw != frameOf(want) {
				t.Errorf("request %d frame %q, want %q", i+1, raw, frameOf(want))
			}
		}
	})

	t.Run("replies", func(t *testing.T) {
		srv, err := NewHandlerServer("127.0.0.1:0", func(method string, params json.RawMessage) (any, error) {
			switch method {
			case "echo":
				var p frameParams
				if err := json.Unmarshal(params, &p); err != nil {
					return nil, err
				}
				return p, nil
			case "boom":
				return nil, fmt.Errorf("handler <exploded> & \u2028")
			case "big":
				return strings.Repeat("x", MaxFrame), nil
			default:
				return nil, UnknownMethod(method)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go srv.Serve(ctx)
		t.Cleanup(func() { cancel(); srv.Close() })
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		oversize := fmt.Sprintf(`{"id":5,"error":"response of %d bytes exceeds the %d-byte frame limit"}`,
			len(`{"id":5,"result":""}`)+MaxFrame, MaxFrame)
		for _, tc := range []struct{ req, want string }{
			{`{"id":1,"method":"echo","params":{"s":"a<b&c\u2028d>","n":[1,-2],"f":0.1}}`,
				`{"id":1,"result":{"s":"a\u003cb\u0026c\u2028d\u003e","n":[1,-2],"f":0.1}}`},
			{`{"id":2,"method":"boom"}`, `{"id":2,"error":"handler \u003cexploded\u003e \u0026 \u2028"}`},
			{`{"id":3,"method":"nope"}`, `{"id":3,"error":"dishrpc: unknown method \"nope\"","error_kind":"unknown_method"}`},
			{`{"id":4,"method":"echo","params":{"s":"","n":null,"f":0}}`, `{"id":4,"result":{"s":"","n":null,"f":0}}`},
			{`{"id":5,"method":"big"}`, oversize},
		} {
			if err := writeBody(conn, []byte(tc.req)); err != nil {
				t.Fatal(err)
			}
			raw, err := rawFrame(conn)
			if err != nil {
				t.Fatalf("reply to %s: %v", tc.req, err)
			}
			if string(raw) != frameOf(tc.want) {
				t.Errorf("reply to %s:\n got %q\nwant %q", tc.req, raw, frameOf(tc.want))
			}
		}
	})
}

// checkKept fails when fb keeps a buffer above maxKeptBuffer, or,
// after a frame over it (big), the decoder that read that frame.
func checkKept(t *testing.T, end string, fb *frameBuffers, big bool) {
	t.Helper()
	for name, c := range map[string]int{
		"body": cap(fb.body), "payload": fb.payload.buf.Cap(), "envelope": fb.env.buf.Cap(),
		"params": cap(fb.req.Params), "result": cap(fb.resp.Result),
	} {
		if c > maxKeptBuffer {
			t.Errorf("%s keeps a %d-byte %s buffer, bound %d", end, c, name, maxKeptBuffer)
		}
	}
	if big && fb.dec.dec != nil {
		t.Errorf("%s keeps the decoder that read a frame over %d bytes", end, maxKeptBuffer)
	}
}

// kept is what one small frame leaves for the next to reuse: the
// decoder, and the first byte of the body and of the decoded payload
// (the request's params at the server, the reply's result at the
// client).
type kept struct {
	dec           *json.Decoder
	body, payload *byte
}

func keptBy(fb *frameBuffers, payload []byte) kept {
	k := kept{dec: fb.dec.dec}
	if cap(fb.body) > 0 {
		k.body = &fb.body[:1][0]
	}
	if cap(payload) > 0 {
		k.payload = &payload[:1][0]
	}
	return k
}

// checkReused fails unless the second of two consecutive small frames
// reused the first's decoder and buffers.
func checkReused(t *testing.T, end string, first, second kept) {
	t.Helper()
	if first.dec == nil || first.body == nil || first.payload == nil {
		t.Errorf("%s kept no decoder or buffer after a small frame: %+v", end, first)
	}
	if first != second {
		t.Errorf("%s read consecutive small frames with different state: %+v, then %+v", end, first, second)
	}
}

// echoHandler returns each request's params as its result: the server
// marshals the result before it reads the next frame into the params'
// buffer.
func echoHandler(_ string, params json.RawMessage) (any, error) { return params, nil }

// TestFrameBuffersBounded: a ~900 KiB request answered by a ~900 KiB
// reply grows every reused buffer past maxKeptBuffer for one frame;
// afterwards neither end keeps one above the bound, nor the decoder
// that read it, and small frames reuse what they keep.
func TestFrameBuffersBounded(t *testing.T) {
	big := strings.Repeat("x", 900<<10)

	t.Run("client", func(t *testing.T) {
		srv, err := NewHandlerServer("127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go srv.Serve(ctx)
		t.Cleanup(func() { cancel(); srv.Close() })
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		var got string
		var prev kept
		for i, params := range []string{"small", "small", big, "small", "small"} {
			if err := c.Call("echo", params, &got); err != nil || got != params {
				t.Fatalf("call %d: %d bytes back for %d, %v", i, len(got), len(params), err)
			}
			checkKept(t, "client", &c.fb, params == big)
			k := keptBy(&c.fb, c.fb.resp.Result)
			if i == 1 || i == 4 {
				checkReused(t, "client", prev, k)
			}
			prev = k
		}
	})

	t.Run("server", func(t *testing.T) {
		s := &Server{handler: echoHandler}
		var fb frameBuffers
		var prev kept
		for i, params := range []string{"small", "small", big, "small", "small"} {
			raw, err := json.Marshal(params)
			if err != nil {
				t.Fatal(err)
			}
			req, err := json.Marshal(request{ID: 9, Method: "echo", Params: raw})
			if err != nil {
				t.Fatal(err)
			}
			var in, out bytes.Buffer
			if err := writeBody(&in, req); err != nil {
				t.Fatal(err)
			}
			bw := bufio.NewWriter(&out)
			if err := s.serveFrame(&in, bw, &fb); err != nil {
				t.Fatal(err)
			}
			var resp response
			if err := readFrame(&out, &resp); err != nil {
				t.Fatal(err)
			}
			var got string
			if err := json.Unmarshal(resp.Result, &got); err != nil || got != params {
				t.Fatalf("echo of %d bytes: %d back, %v (error %q)", len(params), len(got), err, resp.Error)
			}
			checkKept(t, "server", &fb, params == big)
			k := keptBy(&fb, fb.req.Params)
			if i == 1 || i == 4 {
				checkReused(t, "server", prev, k)
			}
			prev = k
		}
		if fb.payload.buf.Cap() == 0 || fb.env.buf.Cap() == 0 {
			t.Error("server kept no encode buffer after a small frame")
		}
	})
}

// predictSat and predictParams mirror the shape of a predict topk or
// observe request: a handful of in-view satellites.
type predictSat struct {
	Az     float64 `json:"az"`
	El     float64 `json:"el"`
	Age    float64 `json:"age_years"`
	Sunlit bool    `json:"sunlit"`
}

type predictParams struct {
	LocalHour int          `json:"local_hour"`
	Sats      []predictSat `json:"sats"`
	ChosenIdx int          `json:"chosen_idx"`
}

type predictResult struct {
	Clusters     []int     `json:"clusters"`
	Probs        []float64 `json:"probs"`
	ModelVersion int64     `json:"model_version"`
}

// BenchmarkCallRoundTrip is one Call over loopback with predict-sized
// params (about 600 bytes) and a top-5 result; allocs/op counts both
// ends. The handler decodes into a reused request through a Decoder,
// as predict's do.
func BenchmarkCallRoundTrip(b *testing.B) {
	res := predictResult{Clusters: []int{17, 3, 120, 64, 9}, Probs: []float64{0.31, 0.2, 0.13, 0.066, 0.0333}, ModelVersion: 12}
	var dec Decoder // the benchmark's one connection calls the handler serially
	var p predictParams
	srv, err := NewHandlerServer("127.0.0.1:0", func(_ string, params json.RawMessage) (any, error) {
		p = predictParams{Sats: p.Sats[:0]}
		if err := dec.Decode(params, &p); err != nil {
			return nil, err
		}
		return &res, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Serve(ctx)
	b.Cleanup(func() { cancel(); srv.Close() })
	c, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	params := predictParams{LocalHour: 14, ChosenIdx: 3}
	for i := 0; i < 8; i++ {
		params.Sats = append(params.Sats, predictSat{
			Az: 12.345678901 + 41.3*float64(i), El: 25.5 + 7.25*float64(i), Age: 1.0833333333 + 0.1*float64(i), Sunlit: i%3 != 0,
		})
	}
	var out predictResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("topk", &params, &out); err != nil {
			b.Fatal(err)
		}
	}
}
