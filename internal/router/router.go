package router

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"allnn/ann/client"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// handshakeTimeout bounds a fresh connection's preamble, as in
// internal/server.
const handshakeTimeout = 10 * time.Second

// Mode selects the router's failure policy when a shard's backend is
// unreachable after retries.
type Mode int

const (
	// Strict fails the whole request fast with SHARD_UNAVAILABLE — the
	// default: no silent data loss.
	Strict Mode = iota
	// Degraded answers with what the live shards produced, marked
	// PARTIAL_RESULT. A degraded reply is the exact answer over the
	// union of the live shards' points.
	Degraded
)

func (m Mode) String() string {
	if m == Degraded {
		return "degraded"
	}
	return "strict"
}

// ParseMode maps "strict"/"degraded" to its Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "strict", "":
		return Strict, nil
	case "degraded":
		return Degraded, nil
	default:
		return 0, fmt.Errorf("router: unknown mode %q (want strict or degraded)", s)
	}
}

// Config parameterises a Router. The zero value is usable (strict
// mode, fan-out bounded at 2×GOMAXPROCS).
type Config struct {
	// Mode is the failure policy for dead shards.
	Mode Mode
	// MaxFanout bounds concurrently outstanding backend RPCs across the
	// whole router (scatter admission) — and with them the connections
	// checked out of, and kept idle in, each backend's pool. 1
	// degenerates to serial scatter over one connection per backend —
	// useful for debugging and as the parity baseline. Zero selects
	// 2×GOMAXPROCS (minimum 4).
	MaxFanout int
	// Dial tunes backend dialling; the zero value selects
	// client.DialConfig's defaults.
	Dial client.DialConfig
	// BackoffBase and BackoffMax bound the per-backend circuit-breaker
	// cool-off after transport failures (defaults 100ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics, when non-nil, receives the router.* metric families.
	Metrics *obs.Registry
	// Logf, when non-nil, receives structured key=value log lines.
	Logf func(format string, args ...any)
}

// Router serves the wire protocol over one or more shard-mapped
// datasets, scatter-gathering each request across the owning backends.
type Router struct {
	cfg      Config
	datasets map[string]*dataset

	// fanout is the scatter admission semaphore: one slot per
	// outstanding backend RPC, router-wide.
	fanout chan struct{}

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu            sync.Mutex
	listeners     map[net.Listener]struct{}
	conns         map[net.Conn]struct{}
	activeReqs    int
	draining      bool
	drained       chan struct{}
	drainedClosed bool
	connWG        sync.WaitGroup

	// router.* metrics (nil-safe through the registry).
	requests        *obs.Counter
	errors          *obs.Counter
	shardsContacted *obs.Counter
	shardsPruned    *obs.Counter
	legGoroutines   *obs.Counter
	unavailable     *obs.Counter
	partials        *obs.Counter
	mergeStreams    *obs.Histogram
	latencies       map[wire.Op]*obs.Histogram
}

// New creates a Router over the given shard maps (one per logical
// dataset). Backends are dialled lazily on first use.
func New(cfg Config, maps ...*MapFile) (*Router, error) {
	if cfg.MaxFanout <= 0 {
		cfg.MaxFanout = 2 * runtime.GOMAXPROCS(0)
		if cfg.MaxFanout < 4 {
			cfg.MaxFanout = 4
		}
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	r := &Router{
		cfg:       cfg,
		datasets:  make(map[string]*dataset),
		fanout:    make(chan struct{}, cfg.MaxFanout),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		drained:   make(chan struct{}),
	}
	for _, m := range maps {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("router: shard map %q: %w", m.Name, err)
		}
		if _, dup := r.datasets[m.Name]; dup {
			return nil, fmt.Errorf("router: duplicate dataset %q", m.Name)
		}
		ds, err := newDataset(m, cfg)
		if err != nil {
			return nil, fmt.Errorf("router: dataset %q: %w", m.Name, err)
		}
		r.datasets[m.Name] = ds
	}
	r.baseCtx, r.cancelBase = context.WithCancel(context.Background())

	reg := cfg.Metrics
	r.requests = reg.Counter("router.requests")
	r.errors = reg.Counter("router.errors")
	r.shardsContacted = reg.Counter("router.shards_contacted")
	r.shardsPruned = reg.Counter("router.shards_pruned")
	r.legGoroutines = reg.Counter("router.scatter_goroutines")
	r.unavailable = reg.Counter("router.shard_unavailable")
	r.partials = reg.Counter("router.partial_results")
	r.mergeStreams = reg.Histogram("router.merge.streams", obs.ExpBuckets(1, 2, 8))
	r.latencies = make(map[wire.Op]*obs.Histogram)
	for _, op := range []wire.Op{
		wire.OpList, wire.OpShardMap,
		wire.OpKNN, wire.OpBatchKNN, wire.OpRange, wire.OpRangePoints,
		wire.OpJoin, wire.OpWithinDistance,
	} {
		r.latencies[op] = reg.Histogram("router."+op.String()+".latency_ns", obs.LatencyBuckets())
	}
	return r, nil
}

func (r *Router) log(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until the listener fails or the
// router drains. It returns nil on a drain-initiated stop.
func (r *Router) Serve(ln net.Listener) error {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		ln.Close()
		return errors.New("router: already shut down")
	}
	r.listeners[ln] = struct{}{}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.listeners, ln)
		r.mu.Unlock()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			draining := r.draining
			r.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		r.mu.Lock()
		if r.draining {
			r.mu.Unlock()
			conn.Close()
			return nil
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.connWG.Add(1)
		go r.handleConn(conn)
	}
}

// Shutdown drains the router: listeners close, new requests are
// refused with SHUTTING_DOWN, in-flight requests finish (or are
// cancelled when ctx expires), then connections — including backend
// connections — are torn down.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return errors.New("router: shutdown already in progress")
	}
	r.draining = true
	if r.activeReqs == 0 && !r.drainedClosed {
		r.drainedClosed = true
		close(r.drained)
	}
	for ln := range r.listeners {
		ln.Close()
	}
	r.mu.Unlock()

	var err error
	select {
	case <-r.drained:
	case <-ctx.Done():
		// Out of patience: cancel the requests and close the backend
		// connections under them, so a leg blocked reading from a hung
		// backend fails now instead of holding the drain.
		err = ctx.Err()
		r.cancelBase()
		r.closeBackends()
		<-r.drained
	}

	r.mu.Lock()
	for conn := range r.conns {
		conn.Close()
	}
	r.mu.Unlock()
	r.connWG.Wait()
	r.cancelBase()
	r.closeBackends()
	return err
}

// closeBackends closes every backend's pooled connections, idle and
// checked out.
func (r *Router) closeBackends() {
	for _, ds := range r.datasets {
		for _, s := range ds.shards {
			s.backend.close()
		}
	}
}

func (r *Router) handleConn(conn net.Conn) {
	remote := conn.RemoteAddr().String()
	defer r.connWG.Done()
	defer func() {
		if rec := recover(); rec != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			r.log("level=error msg=%q conn=%s panic=%v stack=%q", "connection panic", remote, rec, string(buf))
		}
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	if err := wire.ReadHandshake(conn); err != nil {
		r.log("level=warn msg=%q conn=%s err=%v", "handshake failed", remote, err)
		return
	}
	conn.SetReadDeadline(time.Time{})

	br := bufio.NewReader(conn)
	w := &frameWriter{bw: bufio.NewWriter(conn)}
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				r.log("level=warn msg=%q conn=%s err=%v", "read failed", remote, err)
			}
			return
		}
		if !r.serveRequest(w, remote, payload) {
			return
		}
	}
}

func (r *Router) serveRequest(w *frameWriter, remote string, payload []byte) bool {
	hdr, body, err := wire.DecodeRequest(payload)
	if err != nil {
		r.log("level=warn msg=%q conn=%s req=%d err=%v", "bad request frame", remote, hdr.ID, err)
		w.sendError(hdr.ID, hdr.Op, &wire.Error{Code: wire.CodeBadRequest, Msg: err.Error()})
		return false
	}
	if !r.beginRequest() {
		w.sendError(hdr.ID, hdr.Op, &wire.Error{Code: wire.CodeShuttingDown, Msg: "router is draining"})
		return true
	}
	defer r.endRequest()

	r.requests.Inc()
	start := time.Now()
	ctx := r.baseCtx
	if hdr.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hdr.Timeout)
		defer cancel()
	}
	err = r.dispatch(ctx, hdr, body, w)
	if h := r.latencies[hdr.Op]; h != nil {
		h.Observe(float64(time.Since(start).Nanoseconds()))
	}
	if err != nil {
		r.errors.Inc()
		we := toWireError(err)
		if we.Code == wire.CodeShardUnavailable {
			r.unavailable.Inc()
		}
		r.log("level=info msg=%q conn=%s req=%d op=%s code=%s err=%q",
			"request failed", remote, hdr.ID, hdr.Op, we.Code, we.Msg)
		w.sendError(hdr.ID, hdr.Op, we)
	}
	return true
}

func (r *Router) beginRequest() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining {
		return false
	}
	r.activeReqs++
	return true
}

func (r *Router) endRequest() {
	r.mu.Lock()
	r.activeReqs--
	if r.draining && r.activeReqs == 0 && !r.drainedClosed {
		r.drainedClosed = true
		close(r.drained)
	}
	r.mu.Unlock()
}

// dispatch executes one decoded request. A returned error means no
// terminal frame was written yet.
func (r *Router) dispatch(ctx context.Context, hdr wire.RequestHeader, body wire.Message, w *frameWriter) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r.log("level=error msg=%q req=%d op=%s panic=%v", "request panic", hdr.ID, hdr.Op, rec)
			err = &wire.Error{Code: wire.CodeInternal, Msg: "internal error (recovered panic)"}
		}
	}()
	if hdr.Epsilon != 0 {
		return badRequest("the router serves exact queries only (epsilon=%v rejected)", hdr.Epsilon)
	}
	if hdr.WantReport {
		return badRequest("WantReport is not supported on routed requests")
	}

	switch req := body.(type) {
	case *wire.ListReq:
		return r.handleList(hdr, w)
	case *wire.ShardMapReq:
		ds, err := r.dataset(req.Name)
		if err != nil {
			return err
		}
		return w.send(hdr.ID, wire.KindResult, hdr.Op, &wire.ShardMapReply{Map: ds.wireMap})
	case *wire.KNNReq:
		return r.handleKNN(ctx, hdr, req, w)
	case *wire.BatchKNNReq:
		return r.handleBatchKNN(ctx, hdr, req, w)
	case *wire.RangeReq:
		return r.handleRange(ctx, hdr, req, w)
	case *wire.RangePointsReq:
		return r.handleRangePoints(ctx, hdr, req, w)
	case *wire.WithinReq:
		return r.handleWithin(ctx, hdr, req, w)
	case *wire.JoinReq:
		return r.handleJoin(ctx, hdr, req, w)
	case *wire.OpenReq, *wire.CloseReq:
		return badRequest("the router's datasets are fixed by its shard map; open and close indexes on the shard backends")
	case *wire.InsertReq, *wire.DeleteReq:
		return badRequest("mutations are not routed; write to the owning shard backend directly (the shard map's key ranges determine ownership)")
	case *wire.StatsReq:
		return badRequest("stats are per-backend; query the shard servers directly")
	case *wire.PairsReq:
		return badRequest("closest-pairs is not distributed; run it against a single backend")
	default:
		return badRequest("unhandled request type %T", body)
	}
}

func (r *Router) handleList(hdr wire.RequestHeader, w *frameWriter) error {
	names := make([]string, 0, len(r.datasets))
	for name := range r.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	infos := make([]wire.IndexInfo, len(names))
	for i, name := range names {
		ds := r.datasets[name]
		infos[i] = wire.IndexInfo{Name: name, Points: ds.points(), Dim: uint32(ds.dim)}
	}
	return w.send(hdr.ID, wire.KindResult, hdr.Op, &wire.ListReply{Indexes: infos})
}

// dataset resolves a logical dataset name.
func (r *Router) dataset(name string) (*dataset, error) {
	ds, ok := r.datasets[name]
	if !ok {
		return nil, &wire.Error{Code: wire.CodeNotFound, Msg: fmt.Sprintf("router: no dataset %q in the shard map", name)}
	}
	return ds, nil
}

// --- scatter-gather plumbing ------------------------------------------------

// gather tracks one request's scatter across shards: which shards
// failed (for degraded replies), plus the strict-mode abort. A request
// runs its scatters one after another, so one gather serves them all.
type gather struct {
	mode Mode
	// legs counts the scatter legs running on goroutines of their own.
	legs sync.WaitGroup

	mu sync.Mutex
	// missing names the shards that were unavailable (degraded mode).
	missing []string
	// failed is the first hard failure (strict-mode shardError, or any
	// non-shard error in either mode).
	failed error
	// abort is closed when failed is set: scatter legs still waiting for
	// admission are skipped.
	abort chan struct{}
}

// failLocked records the failure that decides the request.
func (g *gather) failLocked(err error) {
	if g.failed == nil {
		g.failed = err
		close(g.abort)
	}
}

// shardDown records one unavailable shard, returning false when the
// gather must abort (strict mode).
func (g *gather) shardDown(name string, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.mode == Degraded {
		g.missing = append(g.missing, name)
		return true
	}
	g.failLocked(&wire.Error{Code: wire.CodeShardUnavailable, Msg: err.Error()})
	return false
}

// hardFail records a non-shard failure (always aborts).
func (g *gather) hardFail(err error) {
	g.mu.Lock()
	g.failLocked(err)
	g.mu.Unlock()
}

// err returns the recorded abort error, if any.
func (g *gather) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed
}

// isMissing reports whether a shard already failed this gather —
// multi-phase requests skip work destined for a shard that is known
// dead.
func (g *gather) isMissing(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, m := range g.missing {
		if m == name {
			return true
		}
	}
	return false
}

// partial returns the PartialInfo block for a degraded gather (nil when
// every shard answered). Shard names are deduplicated (a shard can fail
// in several phases) and sorted for determinism.
func (g *gather) partial() *wire.PartialInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.missing) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(g.missing))
	var missing []string
	for _, m := range g.missing {
		if !seen[m] {
			seen[m] = true
			missing = append(missing, m)
		}
	}
	sort.Strings(missing)
	return &wire.PartialInfo{Missing: missing}
}

// newGather starts a gather under the router's failure mode.
func (r *Router) newGather() *gather {
	return &gather{mode: r.cfg.Mode, abort: make(chan struct{})}
}

// scatterN runs fn once per task index, each leg admitted by the
// router-wide fan-out semaphore (MaxFanout=1 degenerates to serial
// execution in index order). The last leg runs on the caller's
// goroutine — the request has nothing else to do until its legs are in
// — so n legs cost n−1 goroutines and a scatter of one costs none. A
// shardError from fn (which names its shard) is routed through the
// gather's failure policy; any other error aborts. scatterN returns
// the gather's abort error, if any. Legs run concurrently — fn must
// synchronise its own result writes.
func (r *Router) scatterN(ctx context.Context, g *gather, n int, fn func(int) error) error {
	for i := 0; i < n && r.admit(ctx, g); i++ {
		if i == n-1 {
			r.runLeg(g, i, fn)
			break
		}
		g.legs.Add(1)
		r.legGoroutines.Inc()
		go func(i int) {
			defer g.legs.Done()
			r.runLeg(g, i, fn)
		}(i)
	}
	g.legs.Wait()
	return g.err()
}

// admit takes a fan-out slot for a scatter's next leg. It reports false
// when the remaining legs are to be skipped: a strict-mode failure
// already decided the request, or its context is done.
func (r *Router) admit(ctx context.Context, g *gather) bool {
	select {
	case r.fanout <- struct{}{}:
		return true
	case <-g.abort:
		return false
	case <-ctx.Done():
		g.hardFail(ctx.Err())
		return false
	}
}

// runLeg runs one admitted leg, gives its fan-out slot back and routes
// its failure through the gather.
func (r *Router) runLeg(g *gather, i int, fn func(int) error) {
	defer func() { <-r.fanout }()
	err := fn(i)
	if err == nil {
		return
	}
	var se *shardError
	if errors.As(err, &se) {
		g.shardDown(se.shard, err)
		return
	}
	g.hardFail(err)
}

// scatter runs fn once per selected shard via scatterN, recording the
// contacted counter and per-shard latency histogram.
func (r *Router) scatter(ctx context.Context, g *gather, shards []*shard, fn func(*shard) error) error {
	return r.scatterN(ctx, g, len(shards), func(i int) error {
		s := shards[i]
		r.shardsContacted.Inc()
		if s.latency == nil {
			return fn(s)
		}
		start := time.Now()
		err := fn(s)
		s.latency.Observe(float64(time.Since(start).Nanoseconds()))
		return err
	})
}

// prune records n pruned shards.
func (r *Router) prune(n int) {
	if n > 0 {
		r.shardsPruned.Add(uint64(n))
	}
}

// finishPartial bumps the partial-results counter when a degraded
// gather lost shards.
func (r *Router) finishPartial(p *wire.PartialInfo) *wire.PartialInfo {
	if p != nil {
		r.partials.Inc()
	}
	return p
}

// --- response writing -------------------------------------------------------

// frameWriter serialises response frames for one connection, reusing
// one encode buffer (internal/server's connWriter, minus the
// per-request accounting).
type frameWriter struct {
	bw  *bufio.Writer
	buf []byte
}

func (w *frameWriter) send(id uint64, kind wire.ResponseKind, op wire.Op, body wire.Message) error {
	payload, err := wire.EncodeResponse(id, kind, op, body, w.buf)
	if err != nil {
		return err
	}
	w.buf = payload
	if err := wire.WriteFrame(w.bw, payload); err != nil {
		return err
	}
	return w.bw.Flush()
}

func (w *frameWriter) sendError(id uint64, op wire.Op, we *wire.Error) {
	body := &wire.ErrorReply{Code: we.Code, Msg: we.Msg}
	payload, err := wire.EncodeResponse(id, wire.KindError, op, body, w.buf)
	if err != nil {
		payload, err = wire.EncodeResponse(id, wire.KindError, wire.OpList, body, w.buf)
		if err != nil {
			return
		}
	}
	w.buf = payload
	if wire.WriteFrame(w.bw, payload) == nil {
		w.bw.Flush()
	}
}

// toWireError maps an internal failure to its protocol error class.
func toWireError(err error) *wire.Error {
	var we *wire.Error
	switch {
	case errors.As(err, &we):
		return we
	case errors.Is(err, context.DeadlineExceeded):
		return &wire.Error{Code: wire.CodeDeadlineExceeded, Msg: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &wire.Error{Code: wire.CodeShuttingDown, Msg: "request cancelled by router shutdown"}
	default:
		return &wire.Error{Code: wire.CodeInternal, Msg: err.Error()}
	}
}

func badRequest(format string, args ...any) *wire.Error {
	return &wire.Error{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}
