package router

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"allnn/ann/client"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// Config parameterises a Router. The zero value is usable (fan-out
// bounded at 2×GOMAXPROCS).
type Config struct {
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
// Serve, Shutdown and ListenAndServe are the embedded wire.Service's;
// a drain that runs out of time closes the backend connections too.
type Router struct {
	wire.Service

	datasets map[string]*dataset

	// fanout is the scatter admission semaphore: one slot per
	// outstanding backend RPC, router-wide.
	fanout chan struct{}

	// router.* metrics (nil-safe through the registry).
	requests        *obs.Counter
	errors          *obs.Counter
	shardsContacted *obs.Counter
	shardsPruned    *obs.Counter
	legGoroutines   *obs.Counter
	unavailable     *obs.Counter
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
		datasets: make(map[string]*dataset),
		fanout:   make(chan struct{}, cfg.MaxFanout),
	}
	r.Service = wire.Service{
		Name:    "router",
		Handler: r.dispatch,
		Done:    r.finishRequest,
		Abort:   r.closeBackends,
		Logger:  wire.Logger{Logf: cfg.Logf},
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

	reg := cfg.Metrics
	r.requests = reg.Counter("router.requests")
	r.errors = reg.Counter("router.errors")
	r.shardsContacted = reg.Counter("router.shards_contacted")
	r.shardsPruned = reg.Counter("router.shards_pruned")
	r.legGoroutines = reg.Counter("router.scatter_goroutines")
	r.unavailable = reg.Counter("router.shard_unavailable")
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

// closeBackends closes every backend's pooled connections, idle and
// checked out.
func (r *Router) closeBackends() {
	for _, ds := range r.datasets {
		for _, s := range ds.shards {
			s.backend.close()
		}
	}
}

// dispatch is the router's wire.Handler: it executes one decoded
// request. A returned error means no terminal frame was written yet.
func (r *Router) dispatch(ctx context.Context, hdr wire.RequestHeader, body wire.Message, _ string, w *wire.ResponseWriter) error {
	r.requests.Inc()
	if hdr.WantReport {
		return wire.BadRequest("WantReport is not supported on routed requests")
	}

	switch req := body.(type) {
	case *wire.ListReq:
		return r.handleList(w)
	case *wire.ShardMapReq:
		ds, err := r.dataset(req.Name)
		if err != nil {
			return err
		}
		return w.Send(wire.KindResult, &wire.ShardMapReply{Map: ds.wireMap})
	case *wire.KNNReq:
		return r.handleKNN(ctx, req, w)
	case *wire.BatchKNNReq:
		return r.handleBatchKNN(ctx, req, w)
	case *wire.RangeReq:
		return r.handleRange(ctx, req, w)
	case *wire.RangePointsReq:
		return r.handleRangePoints(ctx, req, w)
	case *wire.WithinReq:
		return r.handleWithin(ctx, req, w)
	case *wire.JoinReq:
		return r.handleJoin(ctx, req, w)
	case *wire.OpenReq, *wire.CloseReq:
		return wire.BadRequest("the router's datasets are fixed by its shard map; open and close indexes on the shard backends")
	case *wire.InsertReq, *wire.DeleteReq:
		return wire.BadRequest("mutations are not routed; write to the owning shard backend directly (the shard map's key ranges determine ownership)")
	case *wire.StatsReq:
		return wire.BadRequest("stats are per-backend; query the shard servers directly")
	case *wire.PairsReq:
		return wire.BadRequest("closest-pairs is not distributed; run it against a single backend")
	default:
		return wire.BadRequest("unhandled request type %T", body)
	}
}

// finishRequest is the router's Done hook: the per-op latency and the
// error counters.
func (r *Router) finishRequest(w *wire.ResponseWriter, we *wire.Error) {
	if h := r.latencies[w.Req.Op]; h != nil {
		h.Observe(float64(time.Since(w.Start).Nanoseconds()))
	}
	if we == nil {
		return
	}
	r.errors.Inc()
	if we.Code == wire.CodeShardUnavailable {
		r.unavailable.Inc()
	}
	r.Log(wire.LevelInfo, "request failed",
		"conn", w.Remote, "req", w.Req.ID, "op", w.Req.Op, "code", we.Code, "err", we.Msg)
}

func (r *Router) handleList(w *wire.ResponseWriter) error {
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
	return w.Send(wire.KindResult, &wire.ListReply{Indexes: infos})
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

// gather tracks one request's scatter across shards: the first
// failure, which decides the request, and the abort signal it raises. A
// request runs its scatters one after another, so one gather serves
// them all.
type gather struct {
	// legs counts the scatter legs running on goroutines of their own.
	legs sync.WaitGroup

	mu     sync.Mutex
	failed error
	// abort is closed when failed is set: scatter legs still waiting for
	// admission are skipped.
	abort chan struct{}
}

// fail records err unless an earlier failure already decided the
// request.
func (g *gather) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failed == nil {
		g.failed = err
		close(g.abort)
	}
}

// err returns the failure that decided the request, if any.
func (g *gather) err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed
}

func newGather() *gather {
	return &gather{abort: make(chan struct{})}
}

// scatterN runs fn once per task index, each leg admitted by the
// router-wide fan-out semaphore (MaxFanout=1 degenerates to serial
// execution in index order). The last leg runs on the caller's
// goroutine — the request has nothing else to do until its legs are in
// — so n legs cost n−1 goroutines and a scatter of one costs none. The
// first error from fn aborts the legs not yet admitted; a shard that
// could not be reached fails SHARD_UNAVAILABLE (see backend.do), so the
// request is exact or fails. scatterN returns the gather's error, if
// any. Legs run concurrently — fn must synchronise its own result
// writes.
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
// when the remaining legs are to be skipped: a failure already decided
// the request, or its context is done.
func (r *Router) admit(ctx context.Context, g *gather) bool {
	select {
	case r.fanout <- struct{}{}:
		return true
	case <-g.abort:
		return false
	case <-ctx.Done():
		g.fail(ctx.Err())
		return false
	}
}

// runLeg runs one admitted leg, gives its fan-out slot back and records
// its failure in the gather.
func (r *Router) runLeg(g *gather, i int, fn func(int) error) {
	defer func() { <-r.fanout }()
	if err := fn(i); err != nil {
		g.fail(err)
	}
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
