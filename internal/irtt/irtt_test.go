package irtt

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func startServer(t *testing.T, delay DelayFunc) (*Server, context.CancelFunc) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", delay)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.Serve(ctx)
	t.Cleanup(func() { cancel(); srv.Close() })
	return srv, cancel
}

func TestPacketRoundTrip(t *testing.T) {
	p := packet{Type: typeRequest, Seq: 12345, ClientSend: 987654321}
	buf := p.marshal(nil)
	if len(buf) != packetSize {
		t.Fatalf("marshaled %d bytes", len(buf))
	}
	q, err := parsePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("round trip %+v -> %+v", p, q)
	}
}

func TestPacketValidation(t *testing.T) {
	p := packet{Type: typeReply, Seq: 7, ClientSend: 1, ServerRecv: 2}
	buf := p.marshal(nil)

	short := buf[:20]
	if _, err := parsePacket(short); !errors.Is(err, ErrBadPacket) {
		t.Error("short packet accepted")
	}

	bad := append([]byte(nil), buf...)
	bad[0] = 'X'
	if _, err := parsePacket(bad); !errors.Is(err, ErrBadPacket) {
		t.Error("bad magic accepted")
	}

	flip := append([]byte(nil), buf...)
	flip[10] ^= 0xFF
	if _, err := parsePacket(flip); !errors.Is(err, ErrBadPacket) {
		t.Error("corrupted payload accepted (checksum)")
	}

	badType := packet{Type: 9, Seq: 1}
	raw := badType.marshal(nil)
	if _, err := parsePacket(raw); !errors.Is(err, ErrBadPacket) {
		t.Error("unknown type accepted")
	}
}

func TestClientServerLoopback(t *testing.T) {
	srv, _ := startServer(t, nil)
	results, err := Run(context.Background(), srv.Addr().String(), ClientConfig{
		Interval: 2 * time.Millisecond,
		Count:    50,
		Timeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("%d results", len(results))
	}
	sum := Summarize(results)
	if sum.LossRate > 0.1 {
		t.Errorf("loopback loss rate = %v", sum.LossRate)
	}
	if sum.Received == 0 {
		t.Fatal("no replies")
	}
	if sum.MedianRTT <= 0 || sum.MedianRTT > 100*time.Millisecond {
		t.Errorf("median loopback RTT = %v", sum.MedianRTT)
	}
}

func TestInjectedDelayShowsInRTT(t *testing.T) {
	const inject = 30 * time.Millisecond
	srv, _ := startServer(t, func(time.Time) (time.Duration, bool) { return inject, false })
	results, err := Run(context.Background(), srv.Addr().String(), ClientConfig{
		Interval: 5 * time.Millisecond,
		Count:    20,
		Timeout:  500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(results)
	if sum.Received == 0 {
		t.Fatal("no replies")
	}
	if sum.MedianRTT < inject {
		t.Errorf("median RTT %v below injected delay %v", sum.MedianRTT, inject)
	}
	if sum.MedianRTT > inject+80*time.Millisecond {
		t.Errorf("median RTT %v way above injected delay", sum.MedianRTT)
	}
}

func TestInjectedLoss(t *testing.T) {
	n := 0
	srv, _ := startServer(t, func(time.Time) (time.Duration, bool) {
		n++
		return 0, n%2 == 0 // drop every other probe
	})
	results, err := Run(context.Background(), srv.Addr().String(), ClientConfig{
		Interval: 2 * time.Millisecond,
		Count:    60,
		Timeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(results)
	if sum.LossRate < 0.3 || sum.LossRate > 0.7 {
		t.Errorf("loss rate = %v, want ~0.5", sum.LossRate)
	}
}

func TestClientContextCancel(t *testing.T) {
	srv, _ := startServer(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, srv.Addr().String(), ClientConfig{
		Interval: 10 * time.Millisecond,
		Count:    1000,
		Timeout:  time.Second,
	})
	if err == nil {
		t.Fatal("expected context error")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("cancel did not stop the run promptly")
	}
}

func TestRunBadAddress(t *testing.T) {
	if _, err := Run(context.Background(), "not-an-address:xyz", ClientConfig{}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Sent != 0 || s.Received != 0 || s.LossRate != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	all := Summarize([]Result{{Lost: true}, {Lost: true}})
	if all.LossRate != 1 {
		t.Errorf("all-lost loss rate = %v", all.LossRate)
	}
}

func TestSummarizeOrderStats(t *testing.T) {
	rs := []Result{
		{RTT: 30 * time.Millisecond},
		{RTT: 10 * time.Millisecond},
		{RTT: 20 * time.Millisecond},
	}
	s := Summarize(rs)
	if s.MinRTT != 10*time.Millisecond || s.MedianRTT != 20*time.Millisecond || s.MaxRTT != 30*time.Millisecond {
		t.Errorf("summary = %+v", s)
	}
}

// TestSummarizeQuantiles pins the interpolated quantiles across the
// edge shapes: empty, single sample, and even/odd series lengths.
func TestSummarizeQuantiles(t *testing.T) {
	ms := func(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }
	series := func(ns ...float64) []Result {
		rs := make([]Result, len(ns))
		for i, n := range ns {
			rs[i] = Result{RTT: ms(n)}
		}
		return rs
	}
	cases := []struct {
		name                  string
		rs                    []Result
		median, p95, p99, max time.Duration
	}{
		{"empty", nil, 0, 0, 0, 0},
		{"single", series(42), ms(42), ms(42), ms(42), ms(42)},
		// Even length: the median interpolates between the central pair,
		// p95/p99 between the last two order statistics.
		{"even", series(40, 10, 30, 20), ms(25), ms(38.5), ms(39.7), ms(40)},
		// Odd length: the median is the middle sample exactly.
		{"odd", series(50, 10, 30, 20, 40), ms(30), ms(48), ms(49.6), ms(50)},
	}
	// Interpolation goes through float64 nanoseconds; allow a 1 us slop
	// on the exact arithmetic.
	close := func(a, b time.Duration) bool {
		d := a - b
		return d > -time.Microsecond && d < time.Microsecond
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Summarize(tc.rs)
			if !close(s.MedianRTT, tc.median) || !close(s.P95RTT, tc.p95) || !close(s.P99RTT, tc.p99) || s.MaxRTT != tc.max {
				t.Errorf("got median=%v p95=%v p99=%v max=%v, want %v / %v / %v / %v",
					s.MedianRTT, s.P95RTT, s.P99RTT, s.MaxRTT, tc.median, tc.p95, tc.p99, tc.max)
			}
		})
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	srv, _ := startServer(t, nil)
	// Fire garbage at the server, then verify a normal run still works.
	conn, err := netDial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("garbage"))
	conn.Write(make([]byte, packetSize)) // right size, wrong magic
	conn.Close()

	results, err := Run(context.Background(), srv.Addr().String(), ClientConfig{
		Interval: 2 * time.Millisecond, Count: 10, Timeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if Summarize(results).Received == 0 {
		t.Error("server stopped echoing after garbage")
	}
}

// netDial is a tiny helper so the garbage test doesn't import net at
// the top level of every test.
func netDial(addr string) (io.WriteCloser, error) {
	return net.Dial("udp", addr)
}

// TestClientResultsRace is the regression test for the unsynchronized
// results slice shared between Run's sender and receiver goroutines.
// The echo server answers every probe twice: once honestly and once
// claiming the NEXT sequence number, so the receiver touches
// results[i] in the window before the sender initializes it. Under
// `go test -race` the pre-fix client reports a data race here.
func TestClientResultsRace(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 2048)
		out := make([]byte, packetSize)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			p, err := parsePacket(buf[:n])
			if err != nil || p.Type != typeRequest {
				continue
			}
			p.Type = typeReply
			p.ServerRecv = time.Now().UnixNano()
			conn.WriteToUDP(p.marshal(out), peer)
			p.Seq++ // ahead-of-schedule reply
			conn.WriteToUDP(p.marshal(out), peer)
		}
	}()
	results, err := Run(context.Background(), conn.LocalAddr().String(), ClientConfig{
		Interval: 100 * time.Microsecond,
		Count:    500,
		Timeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 500 {
		t.Fatalf("%d results", len(results))
	}
	sum := Summarize(results)
	if sum.Received == 0 {
		t.Fatal("no replies")
	}
	// The spoofed ahead-of-schedule replies must not have been counted
	// as real echoes: every non-lost RTT must be positive.
	for _, r := range results {
		if !r.Lost && r.RTT <= 0 {
			t.Fatalf("probe %d recorded non-positive RTT %v", r.Seq, r.RTT)
		}
	}
}

// TestServerCloseStopsHeldReplies covers shutdown with replies still
// held by a DelayFunc: Close must stop the outstanding timers rather
// than let them fire into a closed socket, so no held reply reaches the
// client.
func TestServerCloseStopsHeldReplies(t *testing.T) {
	const hold = 5 * time.Second
	srv, err := NewServer("127.0.0.1:0", func(time.Time) (time.Duration, bool) { return hold, false })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx) }()

	// Fire a few probes; replies are now parked on timers.
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		p := packet{Type: typeRequest, Seq: uint64(i), ClientSend: time.Now().UnixNano()}
		if _, err := conn.Write(p.marshal(nil)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the server has parked all five replies.
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.mu.Lock()
		parked := len(srv.timers)
		srv.mu.Unlock()
		if parked == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d replies parked", parked)
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > hold/2 {
		t.Fatalf("Close blocked %v; held timers were not stopped", d)
	}
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := conn.Read(make([]byte, packetSize)); err == nil {
		t.Errorf("client received a %d-byte reply after Close", n)
	}
	srv.mu.Lock()
	left := len(srv.timers)
	srv.mu.Unlock()
	if left != 0 {
		t.Errorf("%d timers still tracked after Close", left)
	}
}

// TestServerDelayedServedCount checks the other half of the held-reply
// fix: held replies do go out, each after its hold.
func TestServerDelayedServedCount(t *testing.T) {
	srv, _ := startServer(t, func(time.Time) (time.Duration, bool) { return 2 * time.Millisecond, false })
	results, err := Run(context.Background(), srv.Addr().String(), ClientConfig{
		Interval: 2 * time.Millisecond,
		Count:    10,
		Timeout:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if Summarize(results).Received == 0 {
		t.Fatal("no replies")
	}
	for _, r := range results {
		if !r.Lost && r.RTT < 2*time.Millisecond {
			t.Errorf("probe %d: RTT %v shorter than the 2 ms hold", r.Seq, r.RTT)
		}
	}
}
