// Package irtt implements an isochronous round-trip-time probe over
// UDP, modeled on the iRTT tool the paper used: a client sends
// fixed-size probes on a strict interval (1 packet / 20 ms in the
// study), the server echoes each with its receive timestamp, and the
// client reports per-probe RTTs plus loss.
//
// The wire format is a fixed 33-byte datagram:
//
//	offset size  field
//	0      4     magic "IRTT"
//	4      1     type (1 = request, 2 = reply)
//	5      8     sequence number, big endian
//	13     8     client send time, unix nanos, big endian
//	21     8     server receive time, unix nanos (reply only)
//	29     4     checksum: xor-folded FNV-1a of bytes [0,29)
//
// The checksum rejects corrupted or foreign datagrams rather than
// letting them corrupt the RTT series.
package irtt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// Wire constants.
const (
	packetSize  = 33
	typeRequest = 1
	typeReply   = 2
)

var magic = [4]byte{'I', 'R', 'T', 'T'}

// ErrBadPacket is returned for datagrams that fail validation.
var ErrBadPacket = errors.New("irtt: malformed packet")

// packet is the decoded wire form.
type packet struct {
	Type       byte
	Seq        uint64
	ClientSend int64
	ServerRecv int64
}

func (p *packet) marshal(buf []byte) []byte {
	if cap(buf) < packetSize {
		buf = make([]byte, packetSize)
	}
	buf = buf[:packetSize]
	copy(buf[0:4], magic[:])
	buf[4] = p.Type
	binary.BigEndian.PutUint64(buf[5:13], p.Seq)
	binary.BigEndian.PutUint64(buf[13:21], uint64(p.ClientSend))
	binary.BigEndian.PutUint64(buf[21:29], uint64(p.ServerRecv))
	binary.BigEndian.PutUint32(buf[29:33], checksum(buf[:29]))
	return buf
}

func parsePacket(b []byte) (packet, error) {
	if len(b) != packetSize {
		return packet{}, fmt.Errorf("%w: %d bytes", ErrBadPacket, len(b))
	}
	if [4]byte(b[0:4]) != magic {
		return packet{}, fmt.Errorf("%w: bad magic", ErrBadPacket)
	}
	if binary.BigEndian.Uint32(b[29:33]) != checksum(b[:29]) {
		return packet{}, fmt.Errorf("%w: bad checksum", ErrBadPacket)
	}
	p := packet{
		Type:       b[4],
		Seq:        binary.BigEndian.Uint64(b[5:13]),
		ClientSend: int64(binary.BigEndian.Uint64(b[13:21])),
		ServerRecv: int64(binary.BigEndian.Uint64(b[21:29])),
	}
	if p.Type != typeRequest && p.Type != typeReply {
		return packet{}, fmt.Errorf("%w: type %d", ErrBadPacket, p.Type)
	}
	return p, nil
}

func checksum(b []byte) uint32 {
	h := fnv.New64a()
	h.Write(b)
	s := h.Sum64()
	return uint32(s) ^ uint32(s>>32)
}

// DelayFunc lets a server inject artificial one-way delay per probe —
// the hook the simulation uses to put the netsim path model under real
// UDP traffic. The function receives the probe's arrival time and
// returns how long to hold the reply. A nil DelayFunc echoes
// immediately. Returning lost=true drops the probe.
type DelayFunc func(arrival time.Time) (delay time.Duration, lost bool)

// Server echoes probes. Zero value is not usable; call NewServer.
type Server struct {
	conn  *net.UDPConn
	delay DelayFunc

	mu     sync.Mutex
	closed bool
	// timers tracks replies held by a DelayFunc so Close can stop them
	// before they write to a closed socket; held counts the same set
	// for Close to wait on.
	timers map[*time.Timer]struct{}
	held   sync.WaitGroup
}

// NewServer opens a UDP listener on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, delay DelayFunc) (*Server, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("irtt: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("irtt: listen %q: %w", addr, err)
	}
	return &Server{conn: conn, delay: delay, timers: make(map[*time.Timer]struct{})}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Serve processes probes until ctx is canceled or the connection is
// closed. It always returns a non-nil error (ctx.Err or a read error).
// Replies still held by a DelayFunc when ctx is canceled are stopped,
// not delivered.
func (s *Server) Serve(ctx context.Context) error {
	go func() {
		<-ctx.Done()
		s.Close()
	}()
	buf := make([]byte, 2048)
	out := make([]byte, packetSize)
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("irtt: read: %w", err)
		}
		arrival := time.Now()
		p, err := parsePacket(buf[:n])
		if err != nil || p.Type != typeRequest {
			continue // ignore garbage
		}
		var hold time.Duration
		if s.delay != nil {
			var lost bool
			hold, lost = s.delay(arrival)
			if lost {
				continue
			}
		}
		p.Type = typeReply
		p.ServerRecv = arrival.UnixNano()
		reply := p.marshal(out)
		if hold > 0 {
			s.holdReply(reply, peer, hold)
		} else {
			// A failed echo is a lost probe, which the client counts.
			if _, err := s.conn.WriteToUDP(reply, peer); err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
}

// holdReply schedules a delayed echo without blocking the receive
// loop. The timer is tracked so Close can stop it.
func (s *Server) holdReply(reply []byte, peer *net.UDPAddr, hold time.Duration) {
	cp := append([]byte(nil), reply...)
	peerCopy := *peer
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.held.Add(1)
	var timer *time.Timer
	timer = time.AfterFunc(hold, func() {
		defer s.held.Done()
		// The registration below holds s.mu, so this lock also
		// guarantees timer is assigned and tracked before we run.
		s.mu.Lock()
		delete(s.timers, timer)
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		// A failed echo is a lost probe, which the client counts.
		_, _ = s.conn.WriteToUDP(cp, &peerCopy)
	})
	s.timers[timer] = struct{}{}
}

// Close stops held replies, waits for in-flight ones, and shuts the
// listener. Safe to call more than once and concurrently with Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for t := range s.timers {
		if t.Stop() {
			s.held.Done()
		}
		delete(s.timers, t)
	}
	s.mu.Unlock()
	// Timers that already fired finish (or see closed) before the
	// socket goes away.
	s.held.Wait()
	return s.conn.Close()
}

// Result is one probe outcome.
type Result struct {
	Seq      uint64
	SendTime time.Time
	RTT      time.Duration
	Lost     bool
}

// ClientConfig controls a probe run.
type ClientConfig struct {
	// Interval between probes. Default 20 ms (the paper's rate).
	Interval time.Duration
	// Count is the number of probes to send. Default 50.
	Count int
	// Timeout after the last send to wait for stragglers. Default
	// 500 ms.
	Timeout time.Duration
}

func (c *ClientConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.Count <= 0 {
		c.Count = 50
	}
	if c.Timeout <= 0 {
		c.Timeout = 500 * time.Millisecond
	}
}

// Run sends an isochronous probe stream to addr and returns one Result
// per probe in sequence order. Probes with no reply are marked Lost.
func Run(ctx context.Context, addr string, cfg ClientConfig) ([]Result, error) {
	cfg.applyDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("irtt: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("irtt: dial %q: %w", addr, err)
	}
	defer conn.Close()

	// results is written by both the sender (marking each probe sent)
	// and the receiver goroutine (matching replies); the sockets give
	// no memory-model edge between the two, so every access goes
	// through resMu.
	var resMu sync.Mutex
	results := make([]Result, cfg.Count)
	done := make(chan struct{})

	// Receiver: match replies to sends by sequence number.
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			now := time.Now()
			p, err := parsePacket(buf[:n])
			if err != nil || p.Type != typeReply {
				continue
			}
			if p.Seq >= uint64(cfg.Count) {
				continue
			}
			resMu.Lock()
			r := &results[p.Seq]
			if r.SendTime.IsZero() || !r.Lost {
				// Not sent yet (spoofed/ahead reply) or duplicate.
				resMu.Unlock()
				continue
			}
			r.Lost = false
			r.RTT = now.Sub(time.Unix(0, p.ClientSend))
			resMu.Unlock()
		}
	}()

	// Sender: strict cadence from a ticker.
	sendBuf := make([]byte, packetSize)
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	for i := 0; i < cfg.Count; i++ {
		sendTime := time.Now()
		resMu.Lock()
		results[i] = Result{Seq: uint64(i), SendTime: sendTime, Lost: true}
		resMu.Unlock()
		p := packet{Type: typeRequest, Seq: uint64(i), ClientSend: sendTime.UnixNano()}
		if _, err := conn.Write(p.marshal(sendBuf)); err != nil {
			return nil, fmt.Errorf("irtt: send %d: %w", i, err)
		}
		if i == cfg.Count-1 {
			break
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			conn.Close()
			<-done
			return results[:i+1], ctx.Err()
		}
	}

	// Grace period for stragglers.
	select {
	case <-time.After(cfg.Timeout):
	case <-ctx.Done():
	}
	conn.Close()
	<-done
	return results, nil
}

// Summary condenses a result set.
type Summary struct {
	Sent, Received            int
	LossRate                  float64
	MinRTT, MedianRTT, MaxRTT time.Duration
	P95RTT, P99RTT            time.Duration
}

// Summarize computes loss and RTT quantiles. Quantiles interpolate
// linearly between order statistics (stats.Quantile), so the median of
// an even-length series is the midpoint of the central pair.
func Summarize(rs []Result) Summary {
	s := Summary{Sent: len(rs)}
	rtts := make([]float64, 0, len(rs))
	for _, r := range rs {
		if !r.Lost {
			rtts = append(rtts, float64(r.RTT))
		}
	}
	s.Received = len(rtts)
	if s.Sent > 0 {
		s.LossRate = float64(s.Sent-s.Received) / float64(s.Sent)
	}
	if len(rtts) == 0 {
		return s
	}
	sort.Float64s(rtts)
	s.MinRTT = time.Duration(rtts[0])
	s.MedianRTT = time.Duration(stats.Quantile(rtts, 0.5))
	s.P95RTT = time.Duration(stats.Quantile(rtts, 0.95))
	s.P99RTT = time.Duration(stats.Quantile(rtts, 0.99))
	s.MaxRTT = time.Duration(rtts[len(rtts)-1])
	return s
}
