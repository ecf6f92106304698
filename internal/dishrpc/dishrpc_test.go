package dishrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obstruction"
)

// writeFrame sends one length-prefixed JSON message: a test peer's
// side of the wire.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dishrpc: marshal: %w", err)
	}
	return writeBody(w, body)
}

// readFrame receives one length-prefixed JSON message into v: a test
// peer's side of the wire.
func readFrame(r io.Reader, v any) error {
	var fb frameBuffers
	return fb.read(r, v)
}

func startServer(t *testing.T, dish *Dish) *Server {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", dish)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Serve(ctx)
	t.Cleanup(func() { cancel(); srv.Close() })
	return srv
}

func track() []obstruction.PolarPoint {
	return []obstruction.PolarPoint{
		{ElevationDeg: 40, AzimuthDeg: 350},
		{ElevationDeg: 65, AzimuthDeg: 20},
		{ElevationDeg: 50, AzimuthDeg: 60},
	}
}

func TestStatusAndMapOverLoopback(t *testing.T) {
	base := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	now := base
	dish := NewDish("dish-iowa", func() time.Time { return now })
	dish.PaintTrack(track())
	srv := startServer(t, dish)

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	now = base.Add(90 * time.Second)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "dish-iowa" {
		t.Errorf("id = %q", st.ID)
	}
	if st.UptimeSeconds != 90 {
		t.Errorf("uptime = %d", st.UptimeSeconds)
	}
	if st.FractionPainted <= 0 {
		t.Error("nothing painted")
	}

	m, err := c.ObstructionMap()
	if err != nil {
		t.Fatal(err)
	}
	want := obstruction.New()
	want.PaintTrack(track())
	if !reflect.DeepEqual(m, want) {
		t.Error("fetched map differs from painted map")
	}
}

func TestResetClearsMapAndUptime(t *testing.T) {
	base := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	now := base
	dish := NewDish("d", func() time.Time { return now })
	dish.PaintTrack(track())
	srv := startServer(t, dish)

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	now = base.Add(10 * time.Minute)
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
	m, err := c.ObstructionMap()
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 0 {
		t.Error("map not cleared by reset")
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds != 0 {
		t.Errorf("uptime after reset = %d", st.UptimeSeconds)
	}
}

func TestPollingSequenceXORWorkflow(t *testing.T) {
	// Simulate the paper's polling loop: paint track A, snapshot, paint
	// track B, snapshot, XOR isolates B.
	dish := NewDish("d", nil)
	srv := startServer(t, dish)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	trackA := track()
	trackB := []obstruction.PolarPoint{
		{ElevationDeg: 30, AzimuthDeg: 180},
		{ElevationDeg: 55, AzimuthDeg: 210},
	}
	dish.PaintTrack(trackA)
	prev, err := c.ObstructionMap()
	if err != nil {
		t.Fatal(err)
	}
	dish.PaintTrack(trackB)
	cur, err := c.ObstructionMap()
	if err != nil {
		t.Fatal(err)
	}
	diff := obstruction.XOR(prev, cur)
	want := obstruction.New()
	want.PaintTrack(trackB)
	if !reflect.DeepEqual(diff, want) {
		t.Error("XOR over RPC snapshots did not isolate the new track")
	}
}

func TestUnknownMethod(t *testing.T) {
	dish := NewDish("d", nil)
	srv := startServer(t, dish)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.call("bogus", nil)
	if err == nil {
		t.Error("unknown method accepted")
	}
	if !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown method error = %v, want errors.Is ErrUnknownMethod", err)
	}
	// Connection must still work afterwards.
	if _, err := c.Status(); err != nil {
		t.Errorf("status after error: %v", err)
	}
}

// TestUnknownMethodTypedAcrossWire pins the protocol-skew contract: an
// unregistered call surfaces as ErrUnknownMethod on the client — across
// the string-flattening wire encoding — while other server-side errors
// and transport failures do not. Clients use the distinction to tell an
// old server (skew) from a dead one (redial).
func TestUnknownMethodTypedAcrossWire(t *testing.T) {
	srv, err := NewHandlerServer("127.0.0.1:0", func(method string, _ json.RawMessage) (any, error) {
		switch method {
		case "ping":
			return "ok", nil
		case "boom":
			return nil, fmt.Errorf("handler exploded")
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

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Call("model_info", nil, nil)
	if !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unregistered call = %v, want ErrUnknownMethod", err)
	}
	if errors.Is(err, ErrPoisoned) {
		t.Errorf("unknown method poisoned the connection: %v", err)
	}
	// The stream stays in sync: the next call on the same connection
	// succeeds.
	if err := c.Call("ping", nil, nil); err != nil {
		t.Fatalf("call after unknown method: %v", err)
	}
	// An ordinary server-side error must NOT read as protocol skew.
	if err := c.Call("boom", nil, nil); err == nil || errors.Is(err, ErrUnknownMethod) {
		t.Errorf("handler error = %v, want non-nil and not ErrUnknownMethod", err)
	}
	// A transport failure is poison, never skew.
	srv.Close()
	err = c.Call("ping", nil, nil)
	if err == nil || errors.Is(err, ErrUnknownMethod) {
		t.Errorf("transport failure = %v, want non-nil and not ErrUnknownMethod", err)
	}
	if err := c.Call("ping", nil, nil); !errors.Is(err, ErrPoisoned) {
		t.Errorf("after transport failure = %v, want ErrPoisoned", err)
	}
}

func TestMultipleClients(t *testing.T) {
	dish := NewDish("d", nil)
	srv := startServer(t, dish)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(srv.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Status(); err != nil {
					done <- err
					return
				}
				if _, err := c.ObstructionMap(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	dish := NewDish("d", nil)
	srv := startServer(t, dish)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Claim a 100 MiB frame: the server must drop the connection rather
	// than allocate it.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100<<20)
	conn.Write(hdr[:])
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered an oversize frame")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{ID: 7, Method: "get_status"}
	if err := writeFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out request
	if err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Method != "get_status" {
		t.Errorf("round trip = %+v", out)
	}
}

func TestReadFrameGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 3)
	buf.Write(hdr[:])
	buf.WriteString("{{{")
	var out request
	if err := readFrame(&buf, &out); err == nil {
		t.Error("garbage json accepted")
	}
}

func TestNewServerNilDish(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", nil); err == nil {
		t.Error("nil dish accepted")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestCallTimeoutOnStalledServer covers the stalled-daemon bugfix: a
// server that accepts but never responds must not hang the poller —
// the call fails once the per-call deadline passes.
func TestCallTimeoutOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept, read nothing, answer nothing
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCallTimeout(100 * time.Millisecond)
	start := time.Now()
	_, err = c.Status()
	if err == nil {
		t.Fatal("call against a stalled server succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("call took %v despite 100ms timeout", d)
	}
}

// TestServeShutdownDisconnectsClients covers the in-flight-connection
// bugfix: after ctx cancel, a connected client must observe a
// disconnect instead of being served indefinitely.
func TestServeShutdownDisconnectsClients(t *testing.T) {
	dish := NewDish("d", nil)
	srv, err := NewServer("127.0.0.1:0", dish)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx) }()

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}

	cancel()
	select {
	case err := <-serveDone:
		if err != context.Canceled {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	// The connection was closed server-side, so the next call fails.
	c.SetCallTimeout(time.Second)
	if _, err := c.Status(); err == nil {
		t.Error("client still served after server shutdown")
	}
}

// startLateReplyServer answers every request correctly but sleeps for
// delay before replying to the "slow" method — the shape of the desync
// bug: a late reply lands on the wire after the caller has timed out
// and moved on.
func startLateReplyServer(t *testing.T, delay time.Duration) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					var req request
					if err := readFrame(conn, &req); err != nil {
						return
					}
					if req.Method == "slow" {
						time.Sleep(delay)
					}
					resp := response{ID: req.ID, Result: json.RawMessage(`"ok"`)}
					if err := writeFrame(conn, &resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr()
}

// TestClientPoisonedAfterTimeout covers the desync bugfix: after a
// timed-out call the stream may hold that call's late reply, so the
// next call must fail fast with ErrPoisoned instead of reading the
// stale frame as its own answer.
func TestClientPoisonedAfterTimeout(t *testing.T) {
	addr := startLateReplyServer(t, 400*time.Millisecond)
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.SetCallTimeout(50 * time.Millisecond)
	if err := c.Call("slow", nil, nil); err == nil {
		t.Fatal("slow call beat its deadline; raise the server delay")
	}
	if c.Err() == nil {
		t.Fatal("client not poisoned after a timed-out call")
	}

	// Give the late reply time to arrive in the socket buffer — the
	// exact bytes the old client would have misread.
	time.Sleep(500 * time.Millisecond)
	c.SetCallTimeout(2 * time.Second)
	var out string
	err = c.Call("fast", nil, &out)
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("second call after timeout: got %v, want ErrPoisoned", err)
	}

	// Redial restores service on a fresh connection.
	if err := c.Redial(); err != nil {
		t.Fatal(err)
	}
	if c.Err() != nil {
		t.Fatalf("poison not cleared by Redial: %v", c.Err())
	}
	if err := c.Call("fast", nil, &out); err != nil {
		t.Fatalf("call after Redial: %v", err)
	}
	if out != "ok" {
		t.Fatalf("call after Redial returned %q", out)
	}
}

// TestHandlerServerErrorMidStream: a server-side handler error is a
// clean protocol exchange — it must surface as an error without
// poisoning the connection, and later calls on the same stream must
// keep working and stay correctly paired.
func TestHandlerServerErrorMidStream(t *testing.T) {
	type args struct{ A, B int }
	srv, err := NewHandlerServer("127.0.0.1:0", func(method string, params json.RawMessage) (any, error) {
		switch method {
		case "add":
			var a args
			if err := json.Unmarshal(params, &a); err != nil {
				return nil, err
			}
			return a.A + a.B, nil
		case "boom":
			return nil, fmt.Errorf("handler exploded")
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	})
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

	var sum int
	if err := c.Call("add", args{2, 3}, &sum); err != nil || sum != 5 {
		t.Fatalf("add = %d, %v", sum, err)
	}
	if err := c.Call("boom", nil, nil); err == nil {
		t.Fatal("handler error not surfaced")
	}
	if c.Err() != nil {
		t.Fatalf("server-side error poisoned the client: %v", c.Err())
	}
	if err := c.Call("add", args{40, 2}, &sum); err != nil || sum != 42 {
		t.Fatalf("add after handler error = %d, %v (stream desynced?)", sum, err)
	}
}

// TestOversizeResultRepliesWithError: a handler result too large for
// one frame comes back as a server error naming its size, and the
// connection stays usable: the next call on the same client succeeds.
func TestOversizeResultRepliesWithError(t *testing.T) {
	srv, err := NewHandlerServer("127.0.0.1:0", func(method string, _ json.RawMessage) (any, error) {
		if method == "big" {
			return strings.Repeat("x", MaxFrame), nil
		}
		return "ok", nil
	})
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
	err = c.Call("big", nil, &got)
	if err == nil {
		t.Fatal("oversized result returned no error")
	}
	size := len(`{"id":1,"result":""}`) + MaxFrame // the reply the server could not send
	want := fmt.Sprintf("dishrpc: server: response of %d bytes exceeds the %d-byte frame limit", size, MaxFrame)
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	if c.Err() != nil {
		t.Fatalf("oversized result poisoned the client: %v", c.Err())
	}
	if err := c.Call("small", nil, &got); err != nil || got != "ok" {
		t.Fatalf("call after the oversized one = %q, %v", got, err)
	}
}

// TestOversizeRequestKeepsClient: a request over MaxFrame is rejected
// before a byte is written, so the client stays usable.
func TestOversizeRequestKeepsClient(t *testing.T) {
	srv, err := NewHandlerServer("127.0.0.1:0", func(string, json.RawMessage) (any, error) { return "ok", nil })
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
	if err := c.Call("big", strings.Repeat("x", MaxFrame), &got); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized request: %v, want an error wrapping ErrProtocol", err)
	}
	if c.Err() != nil {
		t.Fatalf("oversized request poisoned the client: %v", c.Err())
	}
	if err := c.Call("small", nil, &got); err != nil || got != "ok" {
		t.Fatalf("call after the oversized request = %q, %v", got, err)
	}
}

// TestServeWatcherGoroutineReleased is the regression test for the
// ctx-watcher leak: Serve returning via an accept error (Close) while
// the context stays alive must not strand its watcher goroutine.
func TestServeWatcherGoroutineReleased(t *testing.T) {
	ctx := context.Background() // never cancelled: the leaky case
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		srv, err := NewServer("127.0.0.1:0", NewDish("d", nil))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx) }()
		srv.Close()
		if err := <-done; err == nil {
			t.Fatal("Serve returned nil after Close")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 20 Serve cycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentClientStress interleaves status/map/reset from many
// clients at once; run under -race it guards the whole server surface
// (dish state, connection tracking, shutdown).
func TestConcurrentClientStress(t *testing.T) {
	dish := NewDish("d", nil)
	srv := startServer(t, dish)
	const clients = 8
	done := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(n int) {
			c, err := Dial(srv.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 25; j++ {
				switch (n + j) % 3 {
				case 0:
					if _, err := c.Status(); err != nil {
						done <- err
						return
					}
				case 1:
					if _, err := c.ObstructionMap(); err != nil {
						done <- err
						return
					}
				default:
					dish.PaintTrack(track())
					if err := c.Reset(); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
