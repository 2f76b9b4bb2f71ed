package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// handshakeTimeout bounds how long a fresh connection may take to send
// its preamble before the service gives up on it.
const handshakeTimeout = 10 * time.Second

// replyGrace bounds how long a forced drain waits, after cancelling the
// requests in flight, for them to write their error replies before it
// closes the client connections under them.
const replyGrace = 250 * time.Millisecond

// Handler answers one request that passed the drain gate. It writes the
// response frame(s) through w and returns nil, or returns the error that
// decides the request before a terminal frame was written; the Service
// answers that error with a KindError frame.
type Handler func(ctx context.Context, hdr RequestHeader, body Message, remote string, w *ResponseWriter) error

// Service is the server half of the protocol: the connection lifecycle
// annserve and annrouter share. It owns the listeners and connections,
// the handshake and frame loop, the drain gate and the base context
// every request derives from, panic isolation and response writing. Its
// owner sets the exported fields before the first Serve and supplies
// only what it alone knows: how to answer a request, what to record
// once one has ended, and what to tear down when a drain runs out of
// time.
type Service struct {
	// Name labels the service's own errors and refusals ("server",
	// "router").
	Name string
	// Handler answers every request that passes the drain gate.
	Handler Handler
	// Done, when set, runs once a handled request's last frame is
	// written, with the error that frame carried (nil on success).
	Done func(w *ResponseWriter, err *Error)
	// Abort, when set, releases what a request may block on that neither
	// the base context nor its client connection reaches (the router's
	// backend connections). Shutdown runs it when the drain deadline
	// passes and again once the service has stopped.
	Abort func()
	// Logger receives the service's leveled key=value lines.
	Logger

	// base is the parent of every request context; cancelling it (a
	// forced drain) aborts in-flight work through the engine's
	// cancellation machinery.
	base   context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	active    int // requests past the drain gate
	draining  bool
	idle      chan struct{} // closed once draining with no request active
	connWG    sync.WaitGroup

	bytesIn, bytesOut atomic.Uint64
}

// lock takes s.mu, first setting up the state the zero Service lacks.
func (s *Service) lock() {
	s.mu.Lock()
	if s.conns == nil {
		s.base, s.cancel = context.WithCancel(context.Background())
		s.listeners = make(map[net.Listener]struct{})
		s.conns = make(map[net.Conn]struct{})
		s.idle = make(chan struct{})
	}
}

// Serve accepts connections on ln until the listener fails or the
// service drains. It returns nil on a drain-initiated stop.
func (s *Service) Serve(ln net.Listener) error {
	s.lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: already shut down", s.Name)
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		s.mu.Lock()
		draining := s.draining
		if err == nil && !draining {
			s.conns[conn] = struct{}{}
			s.connWG.Add(1)
		}
		s.mu.Unlock()
		switch {
		case err != nil && (draining || errors.Is(err, net.ErrClosed)):
			return nil
		case err != nil:
			return err
		case draining:
			conn.Close()
			return nil
		}
		go s.serveConn(conn)
	}
}

// Shutdown drains the service: listeners close, new requests are
// refused with SHUTTING_DOWN, and requests in flight — streams included
// — run to completion before the connections close. If ctx expires
// first, the base context is cancelled and Abort runs, so the requests
// in flight end SHUTTING_DOWN; after at most replyGrace every client
// connection closes, so a request blocked writing to a client that
// stopped reading ends with its write error; Shutdown then returns
// ctx.Err() once the last request has ended.
func (s *Service) Shutdown(ctx context.Context) error {
	s.lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("%s: shutdown already in progress", s.Name)
	}
	s.draining = true
	if s.active == 0 {
		close(s.idle)
	}
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()

	var err error
	select {
	case <-s.idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.stop()
		<-s.idle
	}
	s.stop()
	s.connWG.Wait()
	return err
}

// stop cancels the base context and runs Abort, then closes every client
// connection once no request is active or replyGrace has passed, so a
// cancelled request can still write its SHUTTING_DOWN reply.
func (s *Service) stop() {
	s.cancel()
	if s.Abort != nil {
		s.Abort()
	}
	select {
	case <-s.idle:
	case <-time.After(replyGrace):
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
}

// Draining reports whether Shutdown has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Conns returns the number of open client connections.
func (s *Service) Conns() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.conns))
}

// BytesIn and BytesOut total the request and response frame bytes,
// length prefixes included, over every connection.
func (s *Service) BytesIn() uint64  { return s.bytesIn.Load() }
func (s *Service) BytesOut() uint64 { return s.bytesOut.Load() }

// serveConn owns one connection: handshake, then a sequential
// request/response loop. A panic below it poisons only this connection.
func (s *Service) serveConn(conn net.Conn) {
	remote := conn.RemoteAddr().String()
	defer s.connWG.Done()
	defer func() {
		if r := recover(); r != nil {
			s.Log(LevelError, "connection panic", "conn", remote, "panic", r, "stack", string(debug.Stack()))
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReader(conn)
	w := &ResponseWriter{bw: bufio.NewWriter(conn), total: &s.bytesOut, Remote: remote}
	if err := ReadHandshake(br); err != nil {
		s.Log(LevelWarn, "handshake failed", "conn", remote, "err", err)
		var ve *VersionError
		if errors.As(err, &ve) {
			s.refuseVersion(br, w, ve.Got)
		}
		return
	}
	conn.SetReadDeadline(time.Time{})

	for {
		payload, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.Log(LevelWarn, "read failed", "conn", remote, "err", err)
			}
			return
		}
		s.bytesIn.Add(uint64(4 + len(payload)))
		if !s.serveRequest(w, payload) {
			return
		}
	}
}

// refuseVersion answers the first request of a peer that speaks protocol
// version got with an error naming both versions, so that the peer's
// client prints why instead of seeing the connection close. A request's
// id leads its frame in every version, so the reply reaches the request
// that is waiting.
func (s *Service) refuseVersion(br *bufio.Reader, w *ResponseWriter, got byte) {
	payload, err := ReadFrame(br)
	if err != nil {
		return
	}
	w.Req, _, _ = DecodeRequest(payload)
	w.SendError(&Error{Code: CodeBadRequest,
		Msg: fmt.Sprintf("%s speaks wire protocol version %d; the client sent version %d", s.Name, Version, got)})
}

// serveRequest decodes one request, passes it through the drain gate to
// the handler and answers a failure with its error frame. It reports
// whether the connection is still usable.
func (s *Service) serveRequest(w *ResponseWriter, payload []byte) bool {
	hdr, body, err := DecodeRequest(payload)
	w.Req, w.Start = hdr, time.Now()
	w.BytesIn, w.BytesOut, w.FlushNs = uint64(4+len(payload)), 0, 0
	if err != nil {
		// The header might not have parsed, but its fixed-width prefix
		// decodes something for the id either way; echoing it back is
		// best-effort before giving up on the stream's framing.
		s.Log(LevelWarn, "bad request frame", "conn", w.Remote, "req", hdr.ID, "err", err)
		w.SendError(&Error{Code: CodeBadRequest, Msg: err.Error()})
		return false
	}
	if !s.enter() {
		w.SendError(&Error{Code: CodeShuttingDown, Msg: s.Name + " is draining"})
		return true
	}
	defer s.leave()

	ctx := s.base
	if hdr.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hdr.Timeout)
		defer cancel()
	}
	var we *Error
	if err := s.handle(ctx, hdr, body, w); err != nil {
		we = s.toError(err)
		w.SendError(we)
	}
	if s.Done != nil {
		s.Done(w, we)
	}
	return true
}

// handle runs the handler. A panicking handler must not take the
// connection down: it is reported as INTERNAL and the connection keeps
// serving.
func (s *Service) handle(ctx context.Context, hdr RequestHeader, body Message, w *ResponseWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.Log(LevelError, "request panic",
				"req", hdr.ID, "trace", hdr.TraceID, "op", hdr.Op, "conn", w.Remote, "panic", r)
			err = &Error{Code: CodeInternal, Msg: "internal error (recovered panic)"}
		}
	}()
	return s.Handler(ctx, hdr, body, w.Remote, w)
}

// enter passes a request through the drain gate.
func (s *Service) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

// leave ends a request that passed the gate. No request enters once
// draining is set, so the last one to leave closes idle exactly once
// (or Shutdown does, finding none active).
func (s *Service) leave() {
	s.mu.Lock()
	s.active--
	if s.draining && s.active == 0 {
		close(s.idle)
	}
	s.mu.Unlock()
}

// toError maps a handler's failure to its protocol error class: an
// *Error as it is, a deadline or a cancellation (the base context's, at
// a forced drain) by class, anything else INTERNAL. An owner with error
// classes of its own maps them before returning.
func (s *Service) toError(err error) *Error {
	var we *Error
	switch {
	case errors.As(err, &we):
		return we
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeDeadlineExceeded, Msg: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &Error{Code: CodeShuttingDown, Msg: "request cancelled by " + s.Name + " shutdown"}
	default:
		return &Error{Code: CodeInternal, Msg: err.Error()}
	}
}

// ListenAndServe is a daemon's main loop: it listens on addr, sends the
// bound address on ready (when non-nil), serves until SIGTERM or SIGINT
// and then drains, cancelling whatever is still in flight after
// drainTimeout. It narrates each step through Logf.
func (s *Service) ListenAndServe(addr string, drainTimeout time.Duration, ready chan<- string) error {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.printf("listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	select {
	case sig := <-sigc:
		s.printf("%v: draining (timeout %v)", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			s.printf("drain: %v (in-flight queries were cancelled)", err)
		} else {
			s.printf("drained cleanly")
		}
		return <-serveDone
	case err := <-serveDone:
		return err
	}
}

// ResponseWriter writes one connection's response frames, reusing one
// encode buffer, and accounts the bytes and flush time of the request it
// is answering. A connection answers one request at a time, so the
// writer also identifies that request.
type ResponseWriter struct {
	bw    *bufio.Writer
	buf   []byte
	total *atomic.Uint64 // the service's BytesOut

	// Remote is the client's address.
	Remote string
	// Req is the request being answered; its ID and Op label every frame.
	Req RequestHeader
	// Start is when the request's frame was read.
	Start time.Time
	// BytesIn is the request frame's size; BytesOut and FlushNs total the
	// response frames written for it and the time spent encoding and
	// flushing them.
	BytesIn, BytesOut uint64
	FlushNs           int64
}

// Send encodes one response frame of the given kind and flushes it to
// the socket (streamed frames must reach the client as they are
// produced).
func (w *ResponseWriter) Send(kind ResponseKind, body Message) error {
	return w.send(kind, w.Req.Op, body)
}

// SendError writes a KindError frame, best-effort.
func (w *ResponseWriter) SendError(we *Error) {
	body := &ErrorReply{Code: we.Code, Msg: we.Msg}
	if w.send(KindError, w.Req.Op, body) != nil {
		// The op may be unknown (undecodable request); force a generic
		// envelope the client can still map by request id.
		w.send(KindError, OpList, body)
	}
}

func (w *ResponseWriter) send(kind ResponseKind, op Op, body Message) error {
	start := time.Now()
	payload, err := EncodeResponse(w.Req.ID, kind, op, body, w.buf)
	if err != nil {
		return err
	}
	w.buf = payload // keep the grown storage for the next frame
	if err := WriteFrame(w.bw, payload); err != nil {
		return err
	}
	w.BytesOut += uint64(4 + len(payload))
	w.total.Add(uint64(4 + len(payload)))
	err = w.bw.Flush()
	w.FlushNs += time.Since(start).Nanoseconds()
	return err
}

// Stream frame sizes, shared by every speaker so a routed stream frames
// like a single node's: JoinFrameResults bounds the join results one
// KindStream frame carries — large enough to amortise framing, small
// enough that the client sees results flowing while a million-row join
// runs — and PairFrameCount is the same bound for within-distance pair
// streams (pairs are much smaller than results).
const (
	JoinFrameResults = 512
	PairFrameCount   = 4096
)

// frameOverhead bounds a stream frame's payload beyond its rows: the
// request id, kind, op and the row count.
const frameOverhead = 8 + 1 + 1 + binary.MaxVarintLen64

// Batcher cuts one result stream into KindStream frames: Add collects
// rows and sends the frame once it holds JoinFrameResults results (or
// PairFrameCount pairs), or before a row that would carry its payload
// past MaxFrame; Flush sends the rest. The rows are encoded when their
// frame is sent, so they must stay unchanged until then. A row too large
// for any frame fails at WriteFrame: a handler refuses such a request
// before running it (see RowBytes).
type Batcher[T Result | Pair] struct {
	w     *ResponseWriter
	rows  []T
	max   int
	bytes int
	// Count is the number of rows added, the total StreamEnd carries.
	Count uint64
}

// NewBatcher returns a Batcher writing through w.
func NewBatcher[T Result | Pair](w *ResponseWriter) *Batcher[T] {
	max := JoinFrameResults
	if _, ok := any((*T)(nil)).(*Pair); ok {
		max = PairFrameCount
	}
	return &Batcher[T]{w: w, max: max, rows: make([]T, 0, max)}
}

// Add appends one row to the stream.
func (b *Batcher[T]) Add(row T) error {
	size := pairBytes
	if r, ok := any(&row).(*Result); ok {
		size = 8 + f64sBytes(r.Point) + uvarintBytes(len(r.Neighbors))
		for i := range r.Neighbors {
			size += 16 + f64sBytes(r.Neighbors[i].Point)
		}
	}
	if len(b.rows) > 0 && frameOverhead+b.bytes+size > MaxFrame {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	b.rows = append(b.rows, row)
	b.bytes += size
	b.Count++
	if len(b.rows) >= b.max {
		return b.Flush()
	}
	return nil
}

// Flush sends the rows collected so far, if any, as one frame.
func (b *Batcher[T]) Flush() error {
	if len(b.rows) == 0 {
		return nil
	}
	var frame Message
	switch rows := any(b.rows).(type) {
	case []Result:
		frame = &JoinFrame{Results: rows}
	case []Pair:
		frame = &PairFrame{Pairs: rows}
	}
	err := b.w.Send(KindStream, frame)
	clear(b.rows)
	b.rows, b.bytes = b.rows[:0], 0
	return err
}

// End sends the rows still collected and closes the stream with its
// count.
func (b *Batcher[T]) End() error {
	if err := b.Flush(); err != nil {
		return err
	}
	return b.w.Send(KindEnd, &StreamEnd{Count: b.Count})
}

// RowBytes bounds the encoding of one Result of dim-dimensional points
// carrying nbs neighbors: an id, the point after a length of at most 2
// bytes, a neighbor count of at most 5 bytes, and per neighbor an id, a
// distance and a point. A handler holds a reply, or a stream's largest
// row, plus 64 bytes of envelope to MaxFrame before it runs the query.
func RowBytes(dim int, nbs int64) int64 {
	point := int64(2 + 8*dim)
	return 8 + point + 5 + nbs*(16+point)
}

// CheckBatchReply refuses a BatchKNN of n probes at k over points
// dim-dimensional points whose reply could not be framed, by its worst
// case: one row of min(k, points) neighbors per probe. The server and
// the router ask it before any work, so a batch is refused alike on
// either path, whatever its legs would have answered.
func CheckBatchReply(n, dim int, k, points int64) error {
	if worst := 64 + int64(n)*RowBytes(dim, min(k, points)); worst > MaxFrame {
		return BadRequest("a batch of %d probes with k=%d may need a %d-byte reply, over the %d-byte frame limit: send smaller batches",
			n, k, worst, MaxFrame)
	}
	return nil
}

// CheckPairsReply refuses a closest-pairs request at k between indexes
// of r and s points whose reply could not be framed, by its worst case:
// min(k, r·s) pairs of two ids and a distance. The server asks it before
// any work.
func CheckPairsReply(k, r, s int64) error {
	n := k
	if r <= 0 || s <= 0 {
		n = 0
	} else if r <= k/s {
		n = r * s
	}
	if worst := 64 + 10 + 24*n; worst > MaxFrame {
		return BadRequest("closest pairs with k=%d may need a %d-byte reply, over the %d-byte frame limit", k, worst, MaxFrame)
	}
	return nil
}

// CheckJoinRow refuses a join at k over points dim-dimensional points
// whose widest row, one of min(k, points) neighbors, could not be
// framed. The server and the router ask it before any work.
func CheckJoinRow(dim int, k, points int64) error {
	if row := 64 + RowBytes(dim, min(k, points)); row > MaxFrame {
		return BadRequest("a join row with k=%d may need %d bytes, over the %d-byte frame limit", k, row, MaxFrame)
	}
	return nil
}

func uvarintBytes(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

func f64sBytes(vs []float64) int { return uvarintBytes(len(vs)) + 8*len(vs) }
