// Package server implements annserve: a TCP query service over a
// catalog of ann indexes. It serves the internal/wire protocol through
// wire.Service — the connection loop, drain and panic isolation it
// shares with annrouter — and reuses the engine's production plumbing
// end to end — per-request context cancellation, obs metrics and trace
// spans, checksummed storage — adding the serving-side concerns:
// catalog, admission control, and per-request records.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
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

// LogLevel orders the server's log severities.
type LogLevel = wire.LogLevel

const (
	LevelDebug = wire.LevelDebug
	LevelInfo  = wire.LevelInfo
	LevelWarn  = wire.LevelWarn
	LevelError = wire.LevelError
)

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
	// log lines (see wire.Logger) — one line per call, no trailing
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
// of listeners (in practice one). Serve, Shutdown and ListenAndServe
// are the embedded wire.Service's.
type Server struct {
	wire.Service

	cfg     Config
	catalog *Catalog
	admit   *admission

	// In-flight request table behind /debug/requests, keyed by the
	// response writer of the connection answering the request (its own
	// mutex: debug scrapes must not contend with the drain lock).
	inflightMu sync.Mutex
	inflight   map[*wire.ResponseWriter]*reqCtx
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
		cfg:      cfg,
		catalog:  NewCatalog(),
		admit:    newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		inflight: make(map[*wire.ResponseWriter]*reqCtx),
		slow:     newSlowLog(cfg.SlowLogSize),
	}
	s.Service = wire.Service{
		Name:    "server",
		Handler: s.serveRequest,
		Done:    s.finishRequest,
		Logger:  wire.Logger{Logf: cfg.Logf, Level: cfg.LogLevel},
	}

	reg := cfg.Metrics
	s.requests = reg.Counter("server.requests")
	s.errors = reg.Counter("server.errors")
	s.rejected = reg.Counter("server.rejected")
	reg.CounterFunc("server.bytes_in", s.BytesIn)
	reg.CounterFunc("server.bytes_out", s.BytesOut)
	reg.GaugeFunc("server.inflight", s.admit.inFlight)
	reg.GaugeFunc("server.queue_depth", s.admit.queueDepth)
	reg.GaugeFunc("server.connections", s.Conns)
	s.latencies = make(map[wire.Op]*obs.Histogram)
	for _, op := range []wire.Op{
		wire.OpOpen, wire.OpClose, wire.OpList, wire.OpStats,
		wire.OpKNN, wire.OpBatchKNN, wire.OpRange,
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

// serveRequest is the server's wire.Handler: it opens the request's
// record and trace span and maps the server's own failure classes.
func (s *Server) serveRequest(ctx context.Context, hdr wire.RequestHeader, body wire.Message, remote string, w *wire.ResponseWriter) error {
	rc := &reqCtx{
		id:      hdr.ID,
		op:      hdr.Op,
		index:   requestIndexLabel(body),
		traceID: hdr.TraceID,
		remote:  remote,
		start:   w.Start,
	}
	s.trackRequest(w, rc)
	s.requests.Inc()
	if s.cfg.Tracer != nil {
		span := s.cfg.Tracer.Begin("server."+hdr.Op.String(), tidServer)
		span.Arg("req", int64(hdr.ID))
		defer span.End()
	}
	return wireError(s.dispatch(ctx, rc, hdr, body, w))
}

// finishRequest is the server's Done hook. It records a finished
// request into the error counters, the per-op and per-op×per-index
// latency histograms, the slow-query ring, and the access log.
func (s *Server) finishRequest(w *wire.ResponseWriter, we *wire.Error) {
	rc := s.untrackRequest(w)
	if rc == nil {
		return // the handler panicked before tracking it
	}
	var code string // terminal error code name; empty on success
	if we != nil {
		code = we.Code.String()
		s.errors.Inc()
		if we.Code == wire.CodeServerBusy {
			s.rejected.Inc()
		}
		s.cfg.Metrics.Counter("server.errors." + strings.ToLower(code)).Inc()
		s.Log(LevelInfo, "request failed",
			"req", rc.id, "trace", rc.traceID, "op", rc.op, "index", rc.index,
			"conn", rc.remote, "code", code, "err", we.Msg)
	}

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
		s.slow.add(rc.record(now, code, w))
		s.Log(LevelWarn, "slow query",
			"req", rc.id, "trace", rc.traceID, "op", rc.op, "index", rc.index,
			"latency_ns", lat.Nanoseconds(), "admission_wait_ns", rc.admissionWaitNs.Load(),
			"engine_ns", rc.engineNs, "flush_ns", w.FlushNs, "code", code)
	}
	if s.cfg.AccessLog != nil {
		line, err := json.Marshal(rc.record(now, code, w))
		if err == nil {
			s.accessMu.Lock()
			_, err = s.cfg.AccessLog.Write(append(line, '\n'))
			s.accessMu.Unlock()
		}
		if err != nil {
			s.Log(LevelWarn, "access log write failed", "req", rc.id, "err", err)
		}
	}
}

// wireError maps the server's own failure classes to their protocol
// codes, leaving every other error to the service's base mapping.
func wireError(err error) error {
	var code wire.ErrorCode
	switch {
	case err == nil || errors.As(err, new(*wire.Error)):
		return err
	case errors.Is(err, ErrIndexNotFound):
		code = wire.CodeNotFound
	case errors.Is(err, ann.ErrInvalidConfig):
		code = wire.CodeBadRequest
	case errors.Is(err, ann.ErrWriteFailed):
		code = wire.CodeWriteFailed
	case errors.Is(err, ann.ErrCorruptPage):
		code = wire.CodeCorruptIndex
	default:
		return err
	}
	return &wire.Error{Code: code, Msg: err.Error()}
}
