// Package dishrpc implements the networked dish API this reproduction
// polls the way the paper polled starlink-grpc-tools against a real
// terminal: a daemon exposes the dish's status and 123×123 obstruction
// map over a framed JSON protocol on TCP, and a client fetches a
// snapshot every 15 seconds and requests resets every 10 minutes.
//
// Wire format: each message is a 4-byte big-endian length followed by
// a JSON body. Requests carry an id echoed in the response, so a
// client could pipeline (the provided client does not need to).
//
// Methods:
//
//	get_status          -> DishStatus
//	get_obstruction_map -> base64 of the map's compact 1-bit encoding
//	reset               -> clears the map (terminal reboot)
package dishrpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obstruction"
)

// MaxFrame bounds accepted message sizes; a 123×123 bitmap is ~1.9 KiB
// so 1 MiB is generous while keeping a malicious peer from ballooning
// memory.
const MaxFrame = 1 << 20

// ErrProtocol reports a malformed frame or message.
var ErrProtocol = errors.New("dishrpc: protocol error")

// ErrPoisoned reports a client whose framed stream can no longer be
// trusted: a previous call failed mid-frame (timeout, disconnect,
// malformed frame), so a late or partial reply could be read as the
// answer to the *next* call. Every subsequent call fails fast with
// this error until Redial establishes a fresh connection.
var ErrPoisoned = errors.New("dishrpc: connection poisoned; reconnect required")

// ErrUnknownMethod reports a call the server's method table does not
// register. It is typed end to end: a handler that wraps it (e.g. with
// UnknownMethod) has the sentinel carried across the wire as a
// structured error kind, so clients can tell protocol skew — an old
// predictd that lacks a call — from a transport failure, which
// surfaces as ErrPoisoned instead. An unknown method does NOT poison
// the connection: the reply frame is well formed and the stream stays
// in sync.
var ErrUnknownMethod = errors.New("dishrpc: unknown method")

// UnknownMethod builds the canonical unknown-method error for a
// handler's default case. errors.Is(err, ErrUnknownMethod) holds on
// both sides of the wire.
func UnknownMethod(method string) error {
	return fmt.Errorf("%w %q", ErrUnknownMethod, method)
}

// errorKindUnknownMethod is the wire tag that survives the string
// flattening of server-side errors.
const errorKindUnknownMethod = "unknown_method"

type request struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

type response struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// ErrorKind carries a machine-readable error class alongside the
	// flattened message, so typed sentinels survive the wire. Old
	// clients ignore the field; old servers never set it.
	ErrorKind string `json:"error_kind,omitempty"`
}

// DishStatus mirrors the subset of dish telemetry the methodology
// uses. Deliberately, it does NOT identify the serving satellite —
// Starlink removed that field, which is why the obstruction-map
// technique exists.
type DishStatus struct {
	ID              string    `json:"id"`
	Hardware        string    `json:"hardware"`
	UptimeSeconds   int64     `json:"uptime_s"`
	SnapshotTime    time.Time `json:"snapshot_time"`
	FractionPainted float64   `json:"fraction_obstruction_map_painted"`
}

// Dish is the device state the daemon serves. Safe for concurrent use.
type Dish struct {
	mu      sync.Mutex
	id      string
	boot    time.Time
	now     func() time.Time
	current *obstruction.Map
}

// NewDish creates a dish. now == nil uses time.Now; the simulator
// passes its own clock.
func NewDish(id string, now func() time.Time) *Dish {
	if now == nil {
		now = time.Now
	}
	return &Dish{id: id, boot: now(), now: now, current: obstruction.New()}
}

// PaintTrack adds a serving satellite's sky-track to the map, as the
// firmware does while connected.
func (d *Dish) PaintTrack(points []obstruction.PolarPoint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.current.PaintTrack(points)
}

// Reset clears the obstruction map and restarts the uptime counter.
func (d *Dish) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.current.Reset()
	d.boot = d.now()
}

// Snapshot returns a copy of the current map.
func (d *Dish) Snapshot() *obstruction.Map {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.current.Clone()
}

// Status reports telemetry.
func (d *Dish) Status() DishStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	return DishStatus{
		ID:              d.id,
		Hardware:        "rev3_proto2_sim",
		UptimeSeconds:   int64(now.Sub(d.boot).Seconds()),
		SnapshotTime:    now,
		FractionPainted: float64(d.current.Count()) / float64(obstruction.Size*obstruction.Size),
	}
}

// writeBody sends one already-encoded message body behind its length.
func writeBody(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("dishrpc: write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("dishrpc: write body: %w", err)
	}
	return nil
}

// maxKeptBuffer bounds the buffers a connection end keeps between
// frames: one that grew past it for a single frame is dropped after
// that frame, so a connection never holds MaxFrame for good.
const maxKeptBuffer = 64 << 10

// frameBuffers are one connection end's reused frame state: the body
// of the last frame read and the decoder that reads it, the request
// and response envelopes, and the encodings of a payload (params or
// result) and of the envelope around it. The end that receives
// requests decodes into req and encodes resp; the other end does the
// reverse. Not safe for concurrent use.
type frameBuffers struct {
	body         []byte
	dec          Decoder
	req          request
	resp         response
	payload, env jsonBuffer
}

// read receives one length-prefixed JSON message into v. Decoding
// copies whatever v keeps (a json.RawMessage too), so the body buffer
// is free again when read returns.
func (fb *frameBuffers) read(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF propagates cleanly for connection close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	if cap(fb.body) < int(n) {
		fb.body = make([]byte, n)
	}
	body := fb.body[:n]
	if cap(fb.body) > maxKeptBuffer {
		fb.body = nil
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("dishrpc: read body: %w", err)
	}
	if err := fb.dec.Decode(body, v); err != nil {
		return fmt.Errorf("%w: bad json: %v", ErrProtocol, err)
	}
	return nil
}

// trim drops the buffers that grew past maxKeptBuffer for this frame;
// read drops the body, and the decoder drops its own.
func (fb *frameBuffers) trim() {
	fb.payload.trim()
	fb.env.trim()
	if cap(fb.req.Params) > maxKeptBuffer {
		fb.req.Params = nil
	}
	if cap(fb.resp.Result) > maxKeptBuffer {
		fb.resp.Result = nil
	}
}

// Decoder decodes JSON documents as json.Unmarshal does, through one
// reused json.Decoder, so a warm Decoder allocates only what the
// decoded value keeps. It drops its decoder after a document over half
// of maxKeptBuffer (the decoder's buffer grows to about twice the
// document) and after a rejected one. The zero value is ready to use.
// Not safe for concurrent use, and not to be copied once used: its
// decoder reads from r.
type Decoder struct {
	r    bytes.Reader
	dec  *json.Decoder
	read int64 // bytes dec has read from r, over every document so far
}

// Decode stores the JSON document data in v and returns
// json.Unmarshal's error, text for text. v then holds what Unmarshal
// would store, except that a document with data after its first value
// may leave that value in v. Nothing keeps data after Decode returns.
func (d *Decoder) Decode(data []byte, v any) error {
	if d.dec == nil {
		d.dec, d.read = json.NewDecoder(&d.r), 0
	}
	d.r.Reset(data)
	err := d.dec.Decode(v)
	// The decoder's offsets run over every byte it has read. What it
	// read of earlier documents and left unparsed is whitespace, so
	// data[0] is at offset d.read and the value ends at data[end].
	end := d.dec.InputOffset() - d.read
	d.read += int64(len(data) - d.r.Len())
	d.r.Reset(nil)
	if err != nil || !onlySpace(data[end:]) {
		// A json.Decoder reports empty and truncated documents as
		// io.EOF and stops after the first value; Unmarshal has the
		// error. A decoder that failed keeps failing, so drop it.
		d.dec = nil
		return json.Unmarshal(data, v)
	}
	if len(data) > maxKeptBuffer/2 {
		d.dec = nil
	}
	return nil
}

// onlySpace reports whether b is all JSON whitespace.
func onlySpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// jsonBuffer encodes values into one reused buffer. Not to be copied
// once used: its encoder writes into its buffer.
type jsonBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// marshal returns v's json.Marshal bytes, valid until the next marshal
// or trim.
func (j *jsonBuffer) marshal(v any) ([]byte, error) {
	if j.enc == nil {
		j.enc = json.NewEncoder(&j.buf)
	}
	j.buf.Reset()
	if err := j.enc.Encode(v); err != nil {
		return nil, err
	}
	b := j.buf.Bytes()
	return b[:len(b)-1], nil // Encode ends with a newline Marshal does not write
}

func (j *jsonBuffer) trim() {
	if j.buf.Cap() > maxKeptBuffer {
		j.buf = bytes.Buffer{}
	}
}

// Handler answers one request: it receives the method name and raw
// params and returns the result value (marshalled into the response)
// or an error (sent to the client as a server-side error string, which
// does not poison the connection). The params are valid until the
// handler returns: the connection reuses their buffer for the next
// frame, so a handler decodes them (a Decoder does it without
// allocating) or copies what it keeps. Handlers are called from one
// goroutine per connection; shared state must be synchronized.
type Handler func(method string, params json.RawMessage) (any, error)

// Server serves framed requests over TCP — a Dish daemon through
// NewServer, or any Handler (the coordinator/worker control plane)
// through NewHandlerServer.
type Server struct {
	handler Handler
	ln      net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves a dish.
func NewServer(addr string, dish *Dish) (*Server, error) {
	if dish == nil {
		return nil, fmt.Errorf("dishrpc: nil dish")
	}
	return NewHandlerServer(addr, dish.dispatch)
}

// NewHandlerServer listens on addr and serves an arbitrary method
// handler over the same length-prefixed framing the dish daemon uses.
func NewHandlerServer(addr string, h Handler) (*Server, error) {
	if h == nil {
		return nil, fmt.Errorf("dishrpc: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dishrpc: listen %q: %w", addr, err)
	}
	return &Server{handler: h, ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Serve accepts connections until ctx is canceled or the listener
// closes. Each connection handles requests sequentially. On shutdown,
// in-flight connections are closed and Serve waits for their handlers
// to drain before returning.
func (s *Server) Serve(ctx context.Context) error {
	// The watcher must die with Serve: tying it only to ctx leaks one
	// goroutine per Serve call that returns on an accept error while the
	// context lives on (a long-running coordinator redials workers many
	// times over one campaign context).
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			s.Close()
		case <-done:
		}
	}()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.closeConns()
			s.wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dishrpc: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// closeConns marks the server closed and disconnects every open
// connection, so handlers stop serving promptly on shutdown.
func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
}

// Close shuts the listener and disconnects open connections. Safe to
// call more than once.
func (s *Server) Close() error {
	s.closeConns()
	return s.ln.Close()
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var fb frameBuffers
	for {
		if err := s.serveFrame(br, bw, &fb); err != nil {
			return // disconnect or garbage: drop the connection
		}
	}
}

// serveFrame answers one request frame from br on bw. The request
// envelope and its params are reused for the next frame: the handler
// may keep nothing of them past its return.
func (s *Server) serveFrame(br io.Reader, bw *bufio.Writer, fb *frameBuffers) error {
	defer fb.trim()
	// Zeroed but for its params buffer, the reused request reads a
	// field the frame omits as a fresh one would.
	req := &fb.req
	*req = request{Params: req.Params[:0]}
	if err := fb.read(br, req); err != nil {
		return err
	}
	resp := &fb.resp
	*resp = response{ID: req.ID}
	result, err := s.handler(req.Method, req.Params)
	if err != nil {
		resp.Error = err.Error()
		if errors.Is(err, ErrUnknownMethod) {
			resp.ErrorKind = errorKindUnknownMethod
		}
	} else if result != nil {
		body, err := fb.payload.marshal(result)
		if err != nil {
			resp.Error = fmt.Sprintf("marshal result: %v", err)
		} else {
			resp.Result = body
		}
	}
	body, err := fb.env.marshal(resp)
	if err == nil && len(body) > MaxFrame {
		// Nothing is on the wire yet: answer with an error that
		// fits, so the client stays in sync instead of reading a
		// dropped connection as a dead server.
		*resp = response{ID: req.ID, Error: fmt.Sprintf(
			"response of %d bytes exceeds the %d-byte frame limit", len(body), MaxFrame)}
		body, err = fb.env.marshal(resp)
	}
	if err != nil {
		return err
	}
	if err := writeBody(bw, body); err != nil {
		return err
	}
	return bw.Flush()
}

// dispatch is the dish daemon's method table, in Handler form.
func (d *Dish) dispatch(method string, _ json.RawMessage) (any, error) {
	switch method {
	case "get_status":
		return d.Status(), nil
	case "get_obstruction_map":
		raw, err := d.Snapshot().MarshalBinary()
		if err != nil {
			return nil, err
		}
		return base64.StdEncoding.EncodeToString(raw), nil
	case "reset":
		d.Reset()
		return "ok", nil
	default:
		return nil, UnknownMethod(method)
	}
}

// DefaultCallTimeout bounds each RPC round trip; a poller on a
// 15-second snapshot cadence cannot afford to hang on a stalled
// daemon.
const DefaultCallTimeout = 10 * time.Second

// Client talks to a framed-RPC server. Not safe for concurrent use;
// open one client per goroutine (like the underlying tools).
type Client struct {
	addr    string
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	fb      frameBuffers
	next    uint64
	timeout time.Duration
	// broken poisons the client: once any call fails below the protocol
	// (I/O error, timeout, malformed or misnumbered frame), the byte
	// stream may be mid-frame, so a later reply could be paired with the
	// wrong call. Every call fails fast until Redial.
	broken error
}

// Dial connects to a daemon. Calls time out after DefaultCallTimeout;
// adjust with SetCallTimeout.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dishrpc: dial %q: %w", addr, err)
	}
	return &Client{
		addr:    addr,
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		timeout: DefaultCallTimeout,
	}, nil
}

// SetCallTimeout changes the per-call deadline. d <= 0 disables it.
func (c *Client) SetCallTimeout(d time.Duration) { c.timeout = d }

// Addr returns the address this client dials.
func (c *Client) Addr() string { return c.addr }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Err returns the poison error, nil while the connection is usable.
func (c *Client) Err() error { return c.broken }

// Redial replaces a poisoned (or healthy) connection with a fresh one
// to the same address and clears the poison state. The coordinator's
// retry path calls this between backoff attempts; in-flight state of
// the old connection is abandoned with it.
func (c *Client) Redial() error {
	c.conn.Close()
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dishrpc: redial %q: %w", c.addr, err)
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.bw = bufio.NewWriter(conn)
	c.broken = nil
	return nil
}

// Call performs one RPC round trip: params (marshalled, may be nil)
// out, result unmarshalled into out (may be nil). A server-side error
// string returns as an error but leaves the connection usable; any
// transport or framing failure poisons the client (see ErrPoisoned).
func (c *Client) Call(method string, params, out any) error {
	if c.broken != nil {
		return fmt.Errorf("%w (after: %v)", ErrPoisoned, c.broken)
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return c.poison(fmt.Errorf("dishrpc: set deadline: %w", err))
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	defer c.fb.trim()
	c.next++
	req := &c.fb.req
	*req = request{ID: c.next, Method: method}
	if params != nil {
		raw, err := c.fb.payload.marshal(params)
		if err != nil {
			// Nothing hit the wire: the stream is still in sync.
			return fmt.Errorf("dishrpc: marshal params: %w", err)
		}
		req.Params = raw
	}
	body, err := c.fb.env.marshal(req)
	if err != nil {
		return fmt.Errorf("dishrpc: marshal: %w", err)
	}
	if err := writeBody(c.bw, body); err != nil {
		if len(body) > MaxFrame {
			return err // rejected before a byte was written: still in sync
		}
		return c.poison(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.poison(fmt.Errorf("dishrpc: flush: %w", err))
	}
	// Zeroed as serveFrame zeroes its request; decoding the result
	// appends to the reused buffer.
	resp := &c.fb.resp
	*resp = response{Result: resp.Result[:0]}
	if err := c.fb.read(c.br, resp); err != nil {
		return c.poison(fmt.Errorf("dishrpc: read response: %w", err))
	}
	if resp.ID != c.next {
		// A reply numbered for another call means the stream is already
		// desynced (e.g. the late answer to a timed-out call).
		return c.poison(fmt.Errorf("%w: response id %d for request %d", ErrProtocol, resp.ID, c.next))
	}
	if resp.Error != "" {
		if resp.ErrorKind == errorKindUnknownMethod {
			// Reconstruct the sentinel: the server flattened the error to a
			// string, the kind tag tells us which typed error it was.
			return fmt.Errorf("dishrpc: server: %s: %w", resp.Error, ErrUnknownMethod)
		}
		return fmt.Errorf("dishrpc: server: %s", resp.Error)
	}
	if out != nil {
		if err := c.fb.dec.Decode(resp.Result, out); err != nil {
			return fmt.Errorf("%w: bad result: %v", ErrProtocol, err)
		}
	}
	return nil
}

// poison marks the connection unusable and returns err.
func (c *Client) poison(err error) error {
	c.broken = err
	return err
}

func (c *Client) call(method string, out any) error {
	return c.Call(method, nil, out)
}

// Status fetches dish telemetry.
func (c *Client) Status() (DishStatus, error) {
	var st DishStatus
	err := c.call("get_status", &st)
	return st, err
}

// ObstructionMap fetches the current obstruction map snapshot.
func (c *Client) ObstructionMap() (*obstruction.Map, error) {
	var b64 string
	if err := c.call("get_obstruction_map", &b64); err != nil {
		return nil, err
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad base64: %v", ErrProtocol, err)
	}
	m := obstruction.New()
	if err := m.UnmarshalBinary(raw); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset reboots the dish (clears the obstruction map).
func (c *Client) Reset() error { return c.call("reset", nil) }
