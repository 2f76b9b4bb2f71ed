// Package server implements annserve: a TCP query service over a
// catalog of ann indexes. It speaks the internal/wire protocol and
// reuses the engine's production plumbing end to end — per-request
// context cancellation, obs metrics and trace spans, checksummed
// storage — adding the serving-side concerns: admission control,
// per-connection panic isolation, and graceful drain.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"allnn/ann"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// tidServer is the trace lane for request spans, above the engine's
// worker (1..) and storage (1000..) lanes.
const tidServer = 2000

// handshakeTimeout bounds how long a fresh connection may take to send
// its preamble before the server gives up on it.
const handshakeTimeout = 10 * time.Second

// Config parameterises a Server. The zero value is usable.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (not catalog
	// ops). Zero selects GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds queries waiting for an execution slot; beyond it
	// requests fail fast with SERVER_BUSY. Zero selects 4×MaxInFlight.
	// Negative disables queueing entirely.
	MaxQueue int
	// IndexBufferBytes is the buffer-pool budget for indexes opened via
	// the catalog OpOpen request (see ann.IndexConfig.BufferPoolBytes).
	IndexBufferBytes int
	// Metrics, when non-nil, receives the server.* metric families and
	// the engine.* counters of served joins.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per request on the
	// server lane.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives the server's structured key=value
	// log lines (see Server.log) — one line per call, no trailing
	// newline expected from the sink.
	Logf func(format string, args ...any)
	// LogLevel is the minimum severity Logf receives. The zero value
	// (LevelDebug) emits everything.
	LogLevel LogLevel
	// SlowThreshold, when positive, is the latency at or above which a
	// finished request enters the slow-query ring (served at
	// /debug/slow) and is logged at warn level. Zero disables the ring.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity (default 128).
	SlowLogSize int
	// AccessLog, when non-nil, receives one JSON line per finished
	// request (the SlowQuery shape). Writes are serialised by the
	// server.
	AccessLog io.Writer
}

// Server owns a catalog and serves the wire protocol over any number
// of listeners (in practice one).
type Server struct {
	cfg     Config
	catalog *Catalog
	admit   *admission

	// baseCtx is the parent of every request context; cancelling it
	// (forced shutdown) aborts in-flight queries through the engine's
	// cancellation machinery.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu            sync.Mutex
	listeners     map[net.Listener]struct{}
	conns         map[net.Conn]struct{}
	activeReqs    int
	draining      bool
	drained       chan struct{}
	drainedClosed bool

	connWG sync.WaitGroup

	// In-flight request table behind /debug/requests, keyed by a
	// server-wide sequence number (its own mutex: debug scrapes must
	// not contend with the connection/drain lock).
	inflightMu sync.Mutex
	inflight   map[uint64]*reqCtx
	reqSeq     atomic.Uint64

	// slow is the bounded ring behind /debug/slow.
	slow *slowLog

	// accessMu serialises JSONL access-log writes.
	accessMu sync.Mutex

	// server.* metrics (nil-safe: a nil Registry hands out working
	// no-op instruments).
	requests  *obs.Counter
	errors    *obs.Counter
	rejected  *obs.Counter
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
	latencies map[wire.Op]*obs.Histogram

	// testHook, when set (tests only), runs at the top of dispatch.
	testHook func(wire.RequestHeader)
}

// New creates a Server with an empty catalog.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	s := &Server{
		cfg:       cfg,
		catalog:   NewCatalog(),
		admit:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drained:   make(chan struct{}),
		inflight:  make(map[uint64]*reqCtx),
		slow:      newSlowLog(cfg.SlowLogSize),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())

	reg := cfg.Metrics
	s.requests = reg.Counter("server.requests")
	s.errors = reg.Counter("server.errors")
	s.rejected = reg.Counter("server.rejected")
	s.bytesIn = reg.Counter("server.bytes_in")
	s.bytesOut = reg.Counter("server.bytes_out")
	reg.GaugeFunc("server.inflight", s.admit.inFlight)
	reg.GaugeFunc("server.queue_depth", s.admit.queueDepth)
	reg.GaugeFunc("server.connections", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.conns))
	})
	s.latencies = make(map[wire.Op]*obs.Histogram)
	for _, op := range []wire.Op{
		wire.OpOpen, wire.OpClose, wire.OpList, wire.OpStats,
		wire.OpKNN, wire.OpBatchKNN, wire.OpRange, wire.OpRangePoints,
		wire.OpJoin, wire.OpWithinDistance, wire.OpClosestPairs,
		wire.OpInsert, wire.OpDelete, wire.OpShardMap,
	} {
		s.latencies[op] = reg.Histogram("server."+op.String()+".latency_ns", obs.LatencyBuckets())
	}
	return s
}

// Catalog returns the server's index catalog, for preloading indexes
// in-process before (or while) serving.
func (s *Server) Catalog() *Catalog { return s.catalog }

// Serve accepts connections on ln until the listener fails or the
// server drains. It returns nil on a drain-initiated stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
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
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn owns one connection: handshake, then a sequential
// request/response loop. A panic below it poisons only this
// connection.
func (s *Server) handleConn(conn net.Conn) {
	remote := conn.RemoteAddr().String()
	defer s.connWG.Done()
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			s.log(LevelError, "connection panic", "conn", remote, "panic", r, "stack", string(buf))
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if err := wire.ReadHandshake(conn); err != nil {
		s.log(LevelWarn, "handshake failed", "conn", remote, "err", err)
		return
	}
	conn.SetReadDeadline(time.Time{})

	br := bufio.NewReader(conn)
	w := &connWriter{bw: bufio.NewWriter(conn), out: s.bytesOut}
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.log(LevelWarn, "read failed", "conn", remote, "err", err)
			}
			return
		}
		s.bytesIn.Add(uint64(4 + len(payload)))
		if !s.serveRequest(w, remote, payload) {
			return
		}
	}
}

// serveRequest decodes and dispatches one request, writing its
// response frame(s). It reports whether the connection is still usable.
func (s *Server) serveRequest(w *connWriter, remote string, payload []byte) bool {
	hdr, body, err := wire.DecodeRequest(payload)
	if err != nil {
		// The header might not have parsed, but its fixed-width prefix
		// decodes something for the id either way; echoing it back is
		// best-effort before giving up on the stream's framing.
		s.log(LevelWarn, "bad request frame", "conn", remote, "req", hdr.ID, "err", err)
		w.sendError(hdr.ID, hdr.Op, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
		return false
	}

	if !s.beginRequest() {
		w.sendError(hdr.ID, hdr.Op, &wire.Error{Code: wire.CodeShuttingDown, Msg: "server is draining"})
		return true
	}
	defer s.endRequest()

	rc := &reqCtx{
		id:         hdr.ID,
		op:         hdr.Op,
		index:      requestIndexLabel(body),
		traceID:    hdr.TraceID,
		remote:     remote,
		start:      time.Now(),
		wantReport: hdr.WantReport,
		bytesIn:    uint64(4 + len(payload)),
	}
	s.trackRequest(rc)
	w.req = rc
	var code string // terminal error code name; empty on success
	defer func() {
		w.req = nil
		s.untrackRequest(rc)
		s.finishRequest(rc, code)
	}()

	s.requests.Inc()
	var span obs.Span
	if s.cfg.Tracer != nil {
		span = s.cfg.Tracer.Begin("server."+hdr.Op.String(), tidServer)
		span.Arg("req", int64(hdr.ID))
		defer span.End()
	}

	ctx := s.baseCtx
	if hdr.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hdr.Timeout)
		defer cancel()
	}

	if err := s.dispatch(ctx, rc, hdr, body, w); err != nil {
		s.errors.Inc()
		we := toWireError(err)
		code = we.Code.String()
		if we.Code == wire.CodeServerBusy {
			s.rejected.Inc()
		}
		s.cfg.Metrics.Counter("server.errors." + strings.ToLower(code)).Inc()
		s.log(LevelInfo, "request failed",
			"req", rc.id, "trace", rc.traceID, "op", rc.op, "index", rc.index,
			"conn", remote, "code", code, "err", we.Msg)
		w.sendError(hdr.ID, hdr.Op, we)
	}
	return true
}

// finishRequest records a finished request into the per-op and
// per-op×per-index latency histograms, the slow-query ring, and the
// access log. code is the terminal error code name, empty on success.
func (s *Server) finishRequest(rc *reqCtx, code string) {
	now := time.Now()
	lat := now.Sub(rc.start)
	s.latencies[rc.op].Observe(float64(lat.Nanoseconds()))
	if rc.index != "" && s.cfg.Metrics != nil {
		s.cfg.Metrics.
			Histogram("server."+rc.op.String()+"."+rc.index+".latency_ns", obs.LatencyBuckets()).
			Observe(float64(lat.Nanoseconds()))
	}
	slow := s.cfg.SlowThreshold > 0 && lat >= s.cfg.SlowThreshold
	if slow {
		s.slow.add(rc.record(now, code))
		s.log(LevelWarn, "slow query",
			"req", rc.id, "trace", rc.traceID, "op", rc.op, "index", rc.index,
			"latency_ns", lat.Nanoseconds(), "admission_wait_ns", rc.admissionWaitNs.Load(),
			"engine_ns", rc.engineNs, "flush_ns", rc.flushNs, "code", code)
	}
	if s.cfg.AccessLog != nil {
		line, err := json.Marshal(rc.record(now, code))
		if err == nil {
			s.accessMu.Lock()
			_, err = s.cfg.AccessLog.Write(append(line, '\n'))
			s.accessMu.Unlock()
		}
		if err != nil {
			s.log(LevelWarn, "access log write failed", "req", rc.id, "err", err)
		}
	}
}

// beginRequest registers an executing request unless the server is
// draining.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.activeReqs++
	return true
}

func (s *Server) endRequest() {
	s.mu.Lock()
	s.activeReqs--
	if s.draining && s.activeReqs == 0 && !s.drainedClosed {
		s.drainedClosed = true
		close(s.drained)
	}
	s.mu.Unlock()
}

// Shutdown gracefully drains the server: listeners stop accepting, new
// requests are refused with SHUTTING_DOWN, and in-flight requests run
// to completion. If ctx expires first, the remaining queries are
// cancelled through their request contexts and Shutdown returns
// ctx.Err() once connections are torn down. The catalog stays open —
// close it separately with Catalog().CloseAll().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: shutdown already in progress")
	}
	s.draining = true
	if s.activeReqs == 0 && !s.drainedClosed {
		s.drainedClosed = true
		close(s.drained)
	}
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()

	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancelBase() // abort in-flight queries
		<-s.drained    // cancellation unblocks them promptly
	}

	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.cancelBase()
	return err
}

// connWriter serialises response frames for one connection, reusing
// one encode buffer across frames. req points at the request currently
// being served (set by serveRequest) so frame bytes and flush time are
// attributed per request as well as to the server-wide counters.
type connWriter struct {
	bw  *bufio.Writer
	out *obs.Counter
	buf []byte
	req *reqCtx
}

// send encodes and writes one response frame and flushes it to the
// socket (streamed frames must reach the client as they are produced).
func (w *connWriter) send(id uint64, kind wire.ResponseKind, op wire.Op, body wire.Message) error {
	start := time.Now()
	payload, err := wire.EncodeResponse(id, kind, op, body, w.buf)
	if err != nil {
		return err
	}
	w.buf = payload // keep the grown storage for the next frame
	if err := wire.WriteFrame(w.bw, payload); err != nil {
		return err
	}
	w.out.Add(uint64(4 + len(payload)))
	err = w.bw.Flush()
	if w.req != nil {
		w.req.bytesOut += uint64(4 + len(payload))
		w.req.flushNs += time.Since(start).Nanoseconds()
	}
	return err
}

// sendError writes a KindError frame, best-effort.
func (w *connWriter) sendError(id uint64, op wire.Op, we *wire.Error) {
	body := &wire.ErrorReply{Code: we.Code, Msg: we.Msg}
	payload, err := wire.EncodeResponse(id, wire.KindError, op, body, w.buf)
	if err != nil {
		// The op may be unknown (undecodable request); force a generic
		// envelope the client can still map by request id.
		payload, err = wire.EncodeResponse(id, wire.KindError, wire.OpList, body, w.buf)
		if err != nil {
			return
		}
	}
	w.buf = payload
	if wire.WriteFrame(w.bw, payload) == nil {
		w.out.Add(uint64(4 + len(payload)))
		if w.req != nil {
			w.req.bytesOut += uint64(4 + len(payload))
		}
		w.bw.Flush()
	}
}

// toWireError maps an internal failure to its protocol error class.
func toWireError(err error) *wire.Error {
	var we *wire.Error
	switch {
	case errors.As(err, &we):
		return we
	case errors.Is(err, ErrIndexNotFound):
		return &wire.Error{Code: wire.CodeNotFound, Msg: err.Error()}
	case errors.Is(err, ann.ErrInvalidConfig):
		return &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()}
	case errors.Is(err, ann.ErrWriteFailed):
		return &wire.Error{Code: wire.CodeWriteFailed, Msg: err.Error()}
	case errors.Is(err, ann.ErrCorruptPage):
		return &wire.Error{Code: wire.CodeCorruptIndex, Msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &wire.Error{Code: wire.CodeDeadlineExceeded, Msg: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &wire.Error{Code: wire.CodeShuttingDown, Msg: "request cancelled by server shutdown"}
	default:
		return &wire.Error{Code: wire.CodeInternal, Msg: err.Error()}
	}
}

// badRequest builds a BAD_REQUEST error.
func badRequest(format string, args ...any) *wire.Error {
	return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}
