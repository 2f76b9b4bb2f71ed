package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/curve"
	"allnn/internal/obs"
	"allnn/internal/router"
	"allnn/internal/server"
)

// conn is how a phase issues operations without knowing whether the
// stack under test is a bare index, a server or a router.
type conn interface {
	KNN(ctx context.Context, q ann.Point, k int) ([]ann.Neighbor, error)
	BatchKNN(ctx context.Context, qs []ann.Point, k int) ([]ann.Result, error)
	// SelfJoin streams the AkNN self-join row by row.
	SelfJoin(ctx context.Context, k int, emit func(ann.Result)) error
}

// directConn calls the ann package in-process.
type directConn struct {
	ix  *ann.Index
	cfg ann.QueryConfig
}

func (c directConn) KNN(_ context.Context, q ann.Point, k int) ([]ann.Neighbor, error) {
	return c.ix.NearestNeighbors(q, k)
}

// BatchKNN probes point by point, as the server's handler does.
func (c directConn) BatchKNN(_ context.Context, qs []ann.Point, k int) ([]ann.Result, error) {
	out := make([]ann.Result, len(qs))
	for i, q := range qs {
		nbs, err := c.ix.NearestNeighbors(q, k)
		if err != nil {
			return nil, err
		}
		out[i] = ann.Result{ID: uint64(i), Point: q, Neighbors: nbs}
	}
	return out, nil
}

func (c directConn) SelfJoin(ctx context.Context, k int, emit func(ann.Result)) error {
	return ann.StreamSelfAllKNearestNeighborsContext(ctx, c.ix, k, c.cfg, func(r ann.Result) error {
		emit(r)
		return nil
	})
}

// remoteConn speaks the wire protocol to a server or router.
type remoteConn struct {
	cl    *client.Client
	index string
}

func (c remoteConn) KNN(ctx context.Context, q ann.Point, k int) ([]ann.Neighbor, error) {
	return c.cl.KNN(ctx, c.index, q, k)
}

func (c remoteConn) BatchKNN(ctx context.Context, qs []ann.Point, k int) ([]ann.Result, error) {
	return c.cl.BatchKNN(ctx, c.index, qs, k)
}

func (c remoteConn) SelfJoin(ctx context.Context, k int, emit func(ann.Result)) error {
	st, err := c.cl.SelfJoin(ctx, c.index, k)
	if err != nil {
		return err
	}
	for st.Next() {
		emit(st.Result())
	}
	return st.Close()
}

// accessSink is the server.Config.AccessLog of a traced run: it keeps
// the three fields the per-layer metrics need from each JSON line and
// drops the rest.
type accessSink struct {
	mu       sync.Mutex
	waitsUs  []float64
	bytesIn  uint64
	bytesOut uint64
	requests uint64
}

func (a *accessSink) Write(line []byte) (int, error) {
	var rec struct {
		AdmissionWaitNs int64  `json:"admission_wait_ns"`
		BytesIn         uint64 `json:"bytes_in"`
		BytesOut        uint64 `json:"bytes_out"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		return 0, err
	}
	a.mu.Lock()
	a.waitsUs = append(a.waitsUs, float64(rec.AdmissionWaitNs)/1e3)
	a.bytesIn += rec.BytesIn
	a.bytesOut += rec.BytesOut
	a.requests++
	a.mu.Unlock()
	return len(line), nil
}

// stack is one workload brought up in-process.
type stack struct {
	w *workload
	// pts is the queried dataset; a point's position is its id (for a
	// routed stack, the router's global curve-order id).
	pts []ann.Point
	// joinPts is the dataset the join phase runs over.
	joinPts []ann.Point
	// indexes are the ann indexes behind the mix path, joinIndexes those
	// behind the join path; storage counters are summed over them.
	indexes, joinIndexes []*ann.Index
	pageFile             string // main index's page file ("" in memory)
	// direct indexes all of pts: what the mix's queries reach once
	// sockets, server and router are taken away (nil on an untraced
	// routed stack, where no single index does).
	direct *ann.Index

	mixConns []conn
	joinConn conn
	writer   *client.Client // serve_rw only
	probe    *client.Client // traced served stacks: catalog round trips
	single   []conn         // traced route_read: one server over the same points, a connection per client

	part      *curve.Partitioning
	access    *accessSink   // traced served stacks
	serverReg *obs.Registry // traced served stacks
	routerReg *obs.Registry // traced route_read

	closers []func()
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func (s *stack) buildIndex(pts []ann.Point, file string) (*ann.Index, error) {
	cfg := ann.IndexConfig{BufferPoolBytes: s.w.poolBytes, PageFile: file, CheckpointEveryBytes: s.w.ckptEveryBytes}
	return ann.BuildIndex(pts, cfg)
}

// service is what the server and the router have in common.
type service interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// listen serves svc on a loopback port until the stack closes, then runs
// after, and returns the address.
func (s *stack) listen(svc service, after func()) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ln) }()
	s.closers = append(s.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		<-done
		after()
	})
	return ln.Addr().String(), nil
}

// serve mounts the named indexes on a new in-process server and returns
// its address. The server owns the indexes from here on.
func (s *stack) serve(cfg server.Config, indexes map[string]*ann.Index) (string, error) {
	srv := server.New(cfg)
	for name, ix := range indexes {
		if err := srv.Catalog().Add(name, ix); err != nil {
			return "", err
		}
	}
	return s.listen(srv, func() { srv.Catalog().CloseAll() })
}

func (s *stack) dial(addr string) (*client.Client, error) {
	cl, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { cl.Close() })
	return cl, nil
}

// bringUp generates the workload's data from seed and builds its stack:
// index(es), listeners, router and client connections. traced adds the
// registries and the access log the per-layer metrics read. Files go
// under dir.
func bringUp(w *workload, seed int64, scale float64, dir string, traced bool) (_ *stack, err error) {
	s := &stack{w: w}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	n := int(float64(w.n) * scale)
	data := w.gen(seed, n)

	var srvCfg server.Config
	if traced && w.served {
		s.access, s.serverReg = &accessSink{}, obs.NewRegistry()
		srvCfg = server.Config{Metrics: s.serverReg, AccessLog: s.access}
	}

	if w.shards > 0 {
		return s, s.bringUpRouted(data, srvCfg, traced)
	}

	s.pts, s.joinPts = data, data
	if w.fileBacked {
		s.pageFile = filepath.Join(dir, fmt.Sprintf("%s-%d.pages", w.name, seed))
		os.Remove(s.pageFile)
		os.Remove(s.pageFile + ".wal")
	}
	ix, err := s.buildIndex(data, s.pageFile)
	if err != nil {
		return nil, err
	}
	s.indexes, s.joinIndexes, s.direct = []*ann.Index{ix}, []*ann.Index{ix}, ix
	mounted := map[string]*ann.Index{"main": ix}
	joinName := "main"
	if w.streamN > 0 {
		s.joinPts = data[:min(len(data), int(float64(w.streamN)*scale))]
		jx, err := s.buildIndex(s.joinPts, "")
		if err != nil {
			ix.Close()
			return nil, err
		}
		s.joinIndexes = []*ann.Index{jx}
		mounted["stream"], joinName = jx, "stream"
	}

	if !w.served {
		s.closers = append(s.closers, func() { ix.Close() })
		for i := 0; i < w.clients; i++ {
			s.mixConns = append(s.mixConns, directConn{ix, w.join})
		}
		s.joinConn = directConn{s.joinIndexes[0], w.join}
		return s, nil
	}

	addr, err := s.serve(srvCfg, mounted)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.clients; i++ {
		cl, err := s.dial(addr)
		if err != nil {
			return nil, err
		}
		s.mixConns = append(s.mixConns, remoteConn{cl, "main"})
	}
	s.joinConn = remoteConn{s.mixConns[0].(remoteConn).cl, joinName}
	if w.writer {
		if s.writer, err = s.dial(addr); err != nil {
			return nil, err
		}
	}
	if traced {
		if s.probe, err = s.dial(addr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// bringUpRouted cuts data into Hilbert shards, one in-process server
// each, behind a strict-mode router (the shape of internal/bench's shard
// experiment). A traced run also serves the same points, in curve order
// so ids line up, from a single node: the router's overhead is measured
// against it.
func (s *stack) bringUpRouted(data []ann.Point, srvCfg server.Config, traced bool) error {
	w := s.w
	part, err := curve.Partition(toGeom(data), w.shards, curve.Hilbert)
	if err != nil {
		return err
	}
	s.part = part
	addrs := make([]string, len(part.Shards))
	for i, sh := range part.Shards {
		shardPts := make([]ann.Point, len(sh.Points))
		for j, idx := range sh.Points {
			shardPts[j] = data[idx]
		}
		s.pts = append(s.pts, shardPts...)
		ix, err := s.buildIndex(shardPts, "")
		if err != nil {
			return err
		}
		s.indexes = append(s.indexes, ix)
		// Only shard 0's server carries the traced registry and access
		// log; one sample of the backend side is enough, and four sinks
		// would bill the tracing four times.
		cfg := server.Config{}
		if i == 0 {
			cfg = srvCfg
		}
		if addrs[i], err = s.serve(cfg, map[string]*ann.Index{fmt.Sprintf("main-%d", i): ix}); err != nil {
			ix.Close()
			return err
		}
	}
	s.joinPts, s.joinIndexes = s.pts, s.indexes

	var rcfg router.Config
	if traced {
		s.routerReg = obs.NewRegistry()
		rcfg.Metrics = s.routerReg
	}
	rt, err := router.New(rcfg, router.MapFromPartitioning("main", part, addrs))
	if err != nil {
		return err
	}
	routerAddr, err := s.listen(rt, func() {})
	if err != nil {
		return err
	}
	for i := 0; i < w.clients; i++ {
		cl, err := s.dial(routerAddr)
		if err != nil {
			return err
		}
		s.mixConns = append(s.mixConns, remoteConn{cl, "main"})
	}
	s.joinConn = s.mixConns[0]

	if traced {
		if s.probe, err = s.dial(addrs[0]); err != nil {
			return err
		}
		ix, err := s.buildIndex(s.pts, "")
		if err != nil {
			return err
		}
		addr, err := s.serve(server.Config{}, map[string]*ann.Index{"single": ix})
		if err != nil {
			ix.Close()
			return err
		}
		for range s.mixConns {
			cl, err := s.dial(addr)
			if err != nil {
				return err
			}
			s.single = append(s.single, remoteConn{cl, "single"})
		}
		s.direct = ix
	}
	return nil
}

// storageStats sums the cumulative storage counters over indexes.
func storageStats(indexes []*ann.Index) ann.IndexStats {
	var sum ann.IndexStats
	for _, ix := range indexes {
		st := ix.Stats()
		sum.PoolHits += st.PoolHits
		sum.PoolMisses += st.PoolMisses
		sum.PoolReads += st.PoolReads
		sum.PoolEvictions += st.PoolEvictions
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.CacheBytes += st.CacheBytes
		sum.SnapshotPins += st.SnapshotPins
	}
	return sum
}
