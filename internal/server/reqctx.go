package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"allnn/ann"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// Request stages, readable by the /debug/requests handler while the
// owning goroutine advances them.
const (
	stageDecode int32 = iota
	stageQueued
	stageRunning
)

func stageName(st int32) string {
	switch st {
	case stageDecode:
		return "decode"
	case stageQueued:
		return "queued"
	case stageRunning:
		return "running"
	default:
		return "unknown"
	}
}

// reqCtx is the server-side record of one in-flight request. The
// immutable identity fields are set before the context enters the
// in-flight table; stage and admissionWaitNs are atomics because the
// debug handlers read them cross-goroutine; everything else is owned by
// the connection goroutine and only read after the request leaves the
// table (finish). Its bytes and flush time are the response writer's.
type reqCtx struct {
	seq     uint64 // server-wide sequence, the in-flight table key
	id      uint64 // wire request id (client-chosen, per connection)
	op      wire.Op
	index   string // index label ("r" or "r+s" for joins), may be empty
	traceID string
	remote  string
	start   time.Time

	stage           atomic.Int32
	admissionWaitNs atomic.Int64

	// Owned by the connection goroutine.
	engineNs int64
	report   *ann.QueryReport // captured by OnReport when the op ran the engine
}

// requestIndexLabel names the index (or index pair) a request targets,
// for per-index metrics and the slow-query log. Catalog-wide ops have
// no label.
func requestIndexLabel(body wire.Message) string {
	switch req := body.(type) {
	case *wire.OpenReq:
		return req.Name
	case *wire.CloseReq:
		return req.Name
	case *wire.StatsReq:
		return req.Name
	case *wire.KNNReq:
		return req.Index
	case *wire.BatchKNNReq:
		return req.Index
	case *wire.RangeReq:
		return req.Index
	case *wire.JoinReq:
		if req.Self || req.S == req.R || req.S == "" {
			return req.R
		}
		return req.R + "+" + req.S
	case *wire.WithinReq:
		if req.S == req.R {
			return req.R
		}
		return req.R + "+" + req.S
	case *wire.PairsReq:
		if req.S == req.R {
			return req.R
		}
		return req.R + "+" + req.S
	default:
		return ""
	}
}

// service is the request's service section so far: what it cost the
// server beyond the engine's own report.
func (rc *reqCtx) service(w *wire.ResponseWriter) wire.ServiceReport {
	return wire.ServiceReport{
		TraceID:       rc.traceID,
		AdmissionWait: time.Duration(rc.admissionWaitNs.Load()),
		EngineTime:    time.Duration(rc.engineNs),
		FlushTime:     time.Duration(w.FlushNs),
		BytesIn:       w.BytesIn,
		BytesOut:      w.BytesOut,
	}
}

// reportJSON encodes the captured engine report plus the service
// section as the JSON a StreamEnd carries, the shape ann/client decodes
// into its QueryReport.
func (rc *reqCtx) reportJSON(w *wire.ResponseWriter) ([]byte, error) {
	var rep struct {
		ann.QueryReport
		wire.ServiceReport `json:"service"`
	}
	if rc.report != nil {
		rep.QueryReport = *rc.report
	}
	rep.ServiceReport = rc.service(w)
	return json.Marshal(rep)
}

// SlowQuery is one slow-query log entry, JSON-shaped for /debug/slow
// and the access log.
type SlowQuery struct {
	Time      time.Time `json:"time"`
	Seq       uint64    `json:"seq"`
	ReqID     uint64    `json:"req_id"`
	Op        string    `json:"op"`
	Index     string    `json:"index,omitempty"`
	Remote    string    `json:"remote,omitempty"`
	Code      string    `json:"code,omitempty"` // error code, absent on success
	LatencyNs int64     `json:"latency_ns"`
	// The service section's keys sit at the top level of an entry.
	wire.ServiceReport
	// Engine report summary (zero when the op never ran the engine).
	DistanceCalcs uint64 `json:"distance_calcs,omitempty"`
	PoolMisses    uint64 `json:"pool_misses,omitempty"`
	Results       uint64 `json:"results,omitempty"`
}

// record builds the log entry for a finished request.
func (rc *reqCtx) record(now time.Time, code string, w *wire.ResponseWriter) SlowQuery {
	e := SlowQuery{
		Time:          now,
		Seq:           rc.seq,
		ReqID:         rc.id,
		Op:            rc.op.String(),
		Index:         rc.index,
		Remote:        rc.remote,
		Code:          code,
		LatencyNs:     now.Sub(rc.start).Nanoseconds(),
		ServiceReport: rc.service(w),
	}
	if rep := rc.report; rep != nil {
		e.DistanceCalcs = rep.Engine.DistanceCalcs
		e.PoolMisses = rep.Pool.Misses
		e.Results = rep.Engine.Results
	}
	return e
}

// slowLog is a bounded ring of the most recent over-threshold requests.
type slowLog struct {
	mu      sync.Mutex
	entries []SlowQuery // ring storage
	next    int         // next write position
	total   uint64      // entries ever recorded (ring may have dropped some)
}

func newSlowLog(capacity int) *slowLog {
	if capacity < 1 {
		capacity = 128
	}
	return &slowLog{entries: make([]SlowQuery, 0, capacity)}
}

func (l *slowLog) add(e SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
		l.next = len(l.entries) % cap(l.entries)
		return
	}
	l.entries[l.next] = e
	l.next = (l.next + 1) % cap(l.entries)
}

// snapshot returns the retained entries, newest first.
func (l *slowLog) snapshot() (entries []SlowQuery, total uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, 0, len(l.entries))
	for i := 1; i <= len(l.entries); i++ {
		out = append(out, l.entries[(l.next-i+len(l.entries))%len(l.entries)])
	}
	return out, l.total
}

// InFlightRequest is one /debug/requests row.
type InFlightRequest struct {
	Seq             uint64 `json:"seq"`
	ReqID           uint64 `json:"req_id"`
	TraceID         string `json:"trace_id,omitempty"`
	Op              string `json:"op"`
	Index           string `json:"index,omitempty"`
	Remote          string `json:"remote,omitempty"`
	Stage           string `json:"stage"`
	ElapsedNs       int64  `json:"elapsed_ns"`
	AdmissionWaitNs int64  `json:"admission_wait_ns,omitempty"`
}

// trackRequest inserts rc, under a fresh sequence number, into the
// in-flight table as the request w answers.
func (s *Server) trackRequest(w *wire.ResponseWriter, rc *reqCtx) {
	rc.seq = s.reqSeq.Add(1)
	s.inflightMu.Lock()
	s.inflight[w] = rc
	s.inflightMu.Unlock()
}

// untrackRequest removes and returns the request w answers, nil if none
// was tracked.
func (s *Server) untrackRequest(w *wire.ResponseWriter) *reqCtx {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	rc := s.inflight[w]
	delete(s.inflight, w)
	return rc
}

// inFlightSnapshot lists the live requests, oldest first.
func (s *Server) inFlightSnapshot() []InFlightRequest {
	now := time.Now()
	s.inflightMu.Lock()
	out := make([]InFlightRequest, 0, len(s.inflight))
	for _, rc := range s.inflight {
		out = append(out, InFlightRequest{
			Seq:             rc.seq,
			ReqID:           rc.id,
			TraceID:         rc.traceID,
			Op:              rc.op.String(),
			Index:           rc.index,
			Remote:          rc.remote,
			Stage:           stageName(rc.stage.Load()),
			ElapsedNs:       now.Sub(rc.start).Nanoseconds(),
			AdmissionWaitNs: rc.admissionWaitNs.Load(),
		})
	}
	s.inflightMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// DebugRoutes returns the server's live-inspection endpoints for the
// obs debug mux: /debug/slow (the slow-query ring) and /debug/requests
// (the in-flight table).
func (s *Server) DebugRoutes() []obs.Route {
	return []obs.Route{
		{Pattern: "/debug/slow", Handler: http.HandlerFunc(s.serveSlow)},
		{Pattern: "/debug/requests", Handler: http.HandlerFunc(s.serveRequests)},
	}
}

func (s *Server) serveSlow(w http.ResponseWriter, _ *http.Request) {
	entries, total := s.slow.snapshot()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Capacity    int         `json:"capacity"`
		Total       uint64      `json:"total"`
		Entries     []SlowQuery `json:"entries"`
	}{s.cfg.SlowThreshold.Nanoseconds(), cap(s.slow.entries), total, entries})
}

func (s *Server) serveRequests(w http.ResponseWriter, _ *http.Request) {
	reqs := s.inFlightSnapshot()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Count    int               `json:"count"`
		Requests []InFlightRequest `json:"requests"`
	}{len(reqs), reqs})
}
