package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"allnn/ann"
	"allnn/internal/core"
	"allnn/internal/curve"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/pq"
	"allnn/internal/storage"
	"allnn/internal/wire"
)

// Tile shape of the distance-kernel probe: one owner tile against one
// candidate tile, the unit the leaf join hands the kernel.
const (
	tileOwners = 64
	tileCands  = 128
	probeReps  = 5
	// enginePasses is how often the engine probe repeats a join, through
	// ann and through core.
	enginePasses = 3
)

// probeKernels times the layers that can be called on their own, over
// seeded inputs that do not depend on the workload (2-D TAC-like and
// 10-D FC-like points): every traced run reports them, so a change to
// one of these layers shows on the workloads it should not move as well
// as on the one it should.
func probeKernels(seed int64, dir string, rec *recorder, m metrics) error {
	sp := rec.start("probe.kernels", 0, 0)
	defer rec.end(sp)
	rng := rand.New(rand.NewSource(seed))
	d2, d10 := datagen.TACSurrogate(seed, 8192), datagen.FCSurrogate(seed, 8192)
	for _, pts := range [][]geom.Point{d2, d10} {
		dim := len(pts[0])
		name := fmt.Sprintf("d%d", dim)
		pack := func(n int) []float64 {
			out := make([]float64, 0, n*dim)
			for i := 0; i < n; i++ {
				out = append(out, pts[rng.Intn(len(pts))]...)
			}
			return out
		}
		owners, cands := pack(tileOwners), pack(tileCands)
		limits, out := make([]float64, tileOwners), make([]float64, tileOwners*tileCands)
		for i := range limits {
			limits[i] = math.Inf(1)
		}
		perCall := timeLoop(probeReps, 300, func(int) {
			geom.DistSqBlock(owners, tileOwners, cands, tileCands, dim, limits, out)
		})
		m.set("geom.distblock_ns_per_pair_"+name, perCall/(tileOwners*tileCands), probeReps)

		rects := make([]geom.Rect, 256)
		for i := range rects {
			at := rng.Intn(len(pts) - 8)
			rects[i] = geom.BoundingRect(pts[at : at+8])
		}
		var sink float64
		m.set("geom.nxndist_ns_"+name, timeLoop(probeReps, 50_000, func(i int) {
			sink += geom.NXNDistSq(rects[i%256], rects[(i*7+1)%256])
		}), probeReps)
		_ = sink
	}

	keys := make([]float64, 4096)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	for _, k := range []int{10, 50} {
		best := pq.NewKBest[int](k)
		m.set(fmt.Sprintf("pq.kbest_push_ns_k%d", k), timeLoop(probeReps, 50*len(keys), func(i int) {
			if i%len(keys) == 0 {
				best.Reset()
			}
			best.Add(keys[i%len(keys)], i)
		}), probeReps)
	}

	part, err := curve.Partition(d2, 4, curve.Hilbert)
	if err != nil {
		return err
	}
	shard := 0
	m.set("curve.locate_ns", timeLoop(probeReps, 50_000, func(i int) {
		shard += part.Locate(d2[i%len(d2)])
	}), probeReps)

	if err := probeWire(d2, m); err != nil {
		return err
	}
	probeNodeCache(m)
	return probePool(filepath.Join(dir, "probe.pages"), m)
}

// probeWire times the codec on the mix's own message shapes: a k=10
// probe, a 64-point batch, and a 512-row k=1 join frame.
func probeWire(pts []geom.Point, m metrics) error {
	nbs := make([]wire.Neighbor, mixK)
	for i := range nbs {
		nbs[i] = wire.Neighbor{ID: uint64(i), Dist: float64(i), Point: pts[i]}
	}
	batchPts := make([][]float64, batchSize)
	batchRes := make([]wire.Result, batchSize)
	for i := range batchPts {
		batchPts[i] = pts[i]
		batchRes[i] = wire.Result{ID: uint64(i), Point: pts[i], Neighbors: nbs}
	}
	frame := &wire.JoinFrame{Results: make([]wire.Result, 512)}
	for i := range frame.Results {
		frame.Results[i] = wire.Result{ID: uint64(i), Point: pts[i], Neighbors: nbs[:1]}
	}
	type shape struct {
		name      string
		op        wire.Op
		kind      wire.ResponseKind
		req, resp wire.Message
		rows      float64
	}
	for _, s := range []shape{
		{"wire.knn", wire.OpKNN, wire.KindResult, &wire.KNNReq{Index: "main", K: mixK, Point: pts[0]}, &wire.KNNReply{Neighbors: nbs}, 1},
		{"wire.batch", wire.OpBatchKNN, wire.KindResult, &wire.BatchKNNReq{Index: "main", K: mixK, Points: batchPts}, &wire.BatchKNNReply{Results: batchRes}, 1},
		{"wire.join_frame", wire.OpJoin, wire.KindStream, nil, frame, 512},
	} {
		var buf []byte
		if s.req != nil {
			hdr := wire.RequestHeader{ID: 1, Op: s.op}
			payload, err := wire.EncodeRequest(hdr, s.req, nil)
			if err != nil {
				return err
			}
			m.set(s.name+"_req_encode_ns", timeLoop(probeReps, 2000, func(int) {
				buf, _ = wire.EncodeRequest(hdr, s.req, buf)
			}), probeReps)
			m.set(s.name+"_req_decode_ns", timeLoop(probeReps, 2000, func(int) {
				wire.DecodeRequest(payload)
			}), probeReps)
		}
		payload, err := wire.EncodeResponse(1, s.kind, s.op, s.resp, nil)
		if err != nil {
			return err
		}
		enc := timeLoop(probeReps, 300, func(int) { buf, _ = wire.EncodeResponse(1, s.kind, s.op, s.resp, buf) })
		dec := timeLoop(probeReps, 300, func(int) { wire.DecodeResponse(payload) })
		if s.req != nil {
			m.set(s.name+"_resp_encode_ns", enc, probeReps)
			m.set(s.name+"_resp_decode_ns", dec, probeReps)
		} else {
			m.set(s.name+"_encode_ns_per_row", enc/s.rows, probeReps)
			m.set(s.name+"_decode_ns_per_row", dec/s.rows, probeReps)
		}
	}
	return nil
}

// probeNodeCache times a hit in the decoded-node cache.
func probeNodeCache(m metrics) {
	cache := index.NewNodeCache(1 << 20)
	entries := make([]index.Entry, 32)
	for id := storage.PageID(0); id < 64; id++ {
		index.CachePut(cache, id, entries)
	}
	m.set("nodecache.get_hit_ns", timeLoop(probeReps, 100_000, func(i int) {
		cache.Get(storage.PageID(i % 64))
	}), probeReps)
}

// probePool times a buffer-pool hit, and a miss served by a checksummed
// page file: 64 frames cycled over 512 pages miss every time.
func probePool(path string, m metrics) error {
	store, err := storage.NewFileStore(path)
	if err != nil {
		return err
	}
	defer store.Close()
	const frames, pages = 64, 512
	pool := storage.NewBufferPool(store, frames)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		f, err := pool.NewPage()
		if err != nil {
			return err
		}
		ids[i] = f.ID()
		f.Release()
	}
	if err := pool.FlushAll(); err != nil {
		return err
	}
	var firstErr error
	get := func(id storage.PageID) {
		f, err := pool.Get(id)
		if err != nil {
			firstErr = err
			return
		}
		f.Release()
	}
	m.set("storage.pool_get_miss_ns", timeLoop(probeReps, 4*pages, func(i int) { get(ids[i%pages]) }), probeReps)
	m.set("storage.pool_get_hit_ns", timeLoop(probeReps, 100_000, func(int) { get(ids[0]) }), probeReps)
	return firstErr
}

// probeEngine rebuilds the workload's join below the ann package, on an
// MBRQT the benchmark bulk-loads itself over the join's points with the
// workload's pool and cache settings, and runs core directly: the
// engine's own counters and stage clocks, the tree's bulk-load and
// node-decode cost, and — against annJoinS, the same join timed through
// ann — what the ann layer adds.
func probeEngine(ctx context.Context, s *stack, pts []ann.Point, annJoinS float64, dir string, rec *recorder, m metrics) error {
	w := s.w
	var store storage.Store = storage.NewMemStore()
	if w.fileBacked {
		fs, err := storage.NewFileStore(filepath.Join(dir, "engine.pages"))
		if err != nil {
			return err
		}
		store = fs
	}
	defer store.Close()
	poolBytes := w.poolBytes
	if poolBytes == 0 {
		poolBytes = 64 << 20
	}
	pool := storage.NewBufferPool(store, storage.FramesForBytes(poolBytes))

	sp := rec.start("mbrqt.BulkLoad", 0, 0)
	start := time.Now()
	tree, err := mbrqt.BulkLoad(pool, toGeom(pts), nil, mbrqt.Config{})
	m.set("mbrqt.bulkload_s", time.Since(start).Seconds(), 1)
	rec.end(sp)
	if err != nil {
		return err
	}
	m.set("mbrqt.pages", float64(store.NumPages()), 1)

	// Node decode, cache off: no cache is attached until a join runs.
	root, err := tree.Root()
	if err != nil {
		return err
	}
	nodes := []index.Entry{root}
	for at := 0; at < len(nodes) && len(nodes) < 4096; at++ {
		children, err := tree.Expand(&nodes[at])
		if err != nil {
			return err
		}
		for _, c := range children {
			if !c.IsObject() {
				nodes = append(nodes, c)
			}
		}
	}
	sp = rec.start("mbrqt.Expand", 0, 0)
	expandNs := make([]float64, len(nodes))
	for i := range nodes {
		start := time.Now()
		if _, err := tree.Expand(&nodes[i]); err != nil {
			return err
		}
		expandNs[i] = float64(time.Since(start).Nanoseconds())
	}
	rec.end(sp)
	m.set("mbrqt.expand_ns_p50", median(expandNs), len(expandNs))

	par := w.join.Parallelism
	if par == 0 {
		par = 2 // what ann picks here: GOMAXPROCS on the 2-core runner
	}
	opts := core.Options{K: w.joinKs[0], ExcludeSelf: true, Parallelism: par, OrderedEmit: true, NodeCacheBytes: w.join.NodeCacheBytes}
	// The fastest of a few passes on either side: the first warms pool and
	// cache, and a floor is what two single measurements can be compared by.
	var rep core.QueryReport
	for pass := 0; pass < enginePasses; pass++ {
		sp = rec.start("core.RunReport", 0, int64(pass+1))
		r, err := core.RunReportContext(ctx, tree, tree, opts, func(core.Result) error { return nil })
		rec.end(sp)
		if err != nil {
			return err
		}
		if pass == 0 || r.Timings.Wall < rep.Timings.Wall {
			rep = r
		}
	}
	rows := float64(rep.Engine.Results)
	m.set("core.distance_calcs_per_row", ratio(float64(rep.Engine.DistanceCalcs), rows), 1)
	m.set("core.enqueued_per_row", ratio(float64(rep.Engine.Enqueued), rows), 1)
	m.set("core.pruned_on_probe_per_row", ratio(float64(rep.Engine.PrunedOnProbe), rows), 1)
	m.set("core.nodes_expanded_per_row", ratio(float64(rep.Engine.NodesExpandedR+rep.Engine.NodesExpandedS), rows), 1)
	m.set("core.kernel_pairs_per_row", ratio(float64(rep.Sched.KernelPairs), rows), 1)
	m.set("core.expand_s", rep.Timings.Expand.Seconds(), 1)
	m.set("core.filter_s", rep.Timings.Filter.Seconds(), 1)
	m.set("core.gather_s", rep.Timings.Gather.Seconds(), 1)
	m.set("core.sched_steals", float64(rep.Sched.Steals), 1)
	m.set("core.sched_splits", float64(rep.Sched.Splits), 1)
	m.set("core.join_s", rep.Timings.Wall.Seconds(), 1)
	m.set("ann.join_overhead_share", ratio(annJoinS-rep.Timings.Wall.Seconds(), annJoinS), 1)
	return nil
}
