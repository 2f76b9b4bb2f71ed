package router

import (
	"context"
	"math"
	"sort"
	"sync"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/geom"
	"allnn/internal/wire"
)

// --- distributed within-distance --------------------------------------------
//
// A within-distance self-join over a partitioned dataset decomposes
// exactly: every qualifying pair is either intra-shard (both points in
// one shard — found by that shard's own distance join) or cross-shard
// (one point in each of two shards). A cross-shard pair (p ∈ i, q ∈ j)
// requires q within distance d of shard i's boundary MBR, so the
// router fetches the two boundary strips — shard i's points inside
// inflate(MBR_j, d) and shard j's points inside inflate(MBR_i, d) —
// via OpRangePoints and brute-forces the strip product locally.
// Shard pairs whose MINDIST(MBR_i, MBR_j) exceeds d are pruned without
// any fetch.

// inflate grows a rect by d in every direction.
func inflate(r geom.Rect, d float64) geom.Rect {
	out := r.Clone()
	for i := range out.Lo {
		out.Lo[i] -= d
		out.Hi[i] += d
	}
	return out
}

// strip is one shard's boundary slice: global ids and coordinates.
type strip struct {
	ids []uint64
	pts []ann.Point
}

func (r *Router) handleWithin(ctx context.Context, req *wire.WithinReq, w *wire.ResponseWriter) error {
	if req.R != req.S {
		return wire.BadRequest("the router distributes self-joins of one routed dataset; got R=%q, S=%q (join a routed dataset against itself, or run cross-dataset joins on a single backend)", req.R, req.S)
	}
	ds, err := r.dataset(req.R)
	if err != nil {
		return err
	}
	if !(req.Dist >= 0) {
		return wire.BadRequest("distance must be non-negative, got %v", req.Dist)
	}
	d := req.Dist
	g := newGather()

	// Phase A: every shard's own distance join, gathered into per-shard
	// pair lists (kept separate so emission preserves shard order).
	selfPairs := make([][]wire.Pair, len(ds.shards))
	if err := r.scatter(ctx, g, ds.shards, func(s *shard) error {
		var pairs []wire.Pair
		err := s.backend.do(ctx, func(cli *client.Client) error {
			pairs = pairs[:0] // a retried stream starts over
			_, err := cli.WithinDistance(ctx, s.name, s.name, d, req.ExcludeSelf, func(rID, sID uint64, dist float64) error {
				pairs = append(pairs, wire.Pair{R: rID + s.idBase, S: sID + s.idBase, Dist: dist})
				return nil
			})
			return err
		})
		if err != nil {
			return err
		}
		selfPairs[s.index] = pairs
		return nil
	}); err != nil {
		return err
	}

	// Phase B: cross-shard strips. Fetch each shard's boundary slice at
	// most once per partner shard; prune shard pairs beyond d.
	type task struct{ i, j int }
	var tasks []task
	prunedPairs := 0
	for i := range ds.shards {
		for j := i + 1; j < len(ds.shards); j++ {
			if geom.MinDist(ds.shards[i].mbr, ds.shards[j].mbr) > d {
				prunedPairs++
				continue
			}
			tasks = append(tasks, task{i, j})
		}
	}
	r.prune(prunedPairs)

	crossPairs := make([][]wire.Pair, len(tasks))
	distSq := d * d
	if err := r.scatterN(ctx, g, len(tasks), func(ti int) error {
		t := tasks[ti]
		si, sj := ds.shards[t.i], ds.shards[t.j]
		fetch := func(s *shard, box geom.Rect) (strip, error) {
			var st strip
			err := s.backend.do(ctx, func(cli *client.Client) error {
				var err error
				st.ids, st.pts, err = cli.RangePoints(ctx, s.name, box.Lo, box.Hi)
				return err
			})
			return st, err
		}
		stripI, err := fetch(si, inflate(sj.mbr, d))
		if err != nil {
			return err
		}
		stripJ, err := fetch(sj, inflate(si.mbr, d))
		if err != nil {
			return err
		}
		// Brute-force the strip product with the engine's exact
		// comparison (inclusive, on squared distance). Both directions
		// are emitted — a single-node R×S self-join reports each
		// unordered pair twice.
		var pairs []wire.Pair
		for a, p := range stripI.pts {
			for b, q := range stripJ.pts {
				dsq := geom.DistSq(geom.Point(p), geom.Point(q))
				if dsq > distSq {
					continue
				}
				dist := math.Sqrt(dsq)
				gi, gj := stripI.ids[a]+si.idBase, stripJ.ids[b]+sj.idBase
				pairs = append(pairs, wire.Pair{R: gi, S: gj, Dist: dist}, wire.Pair{R: gj, S: gi, Dist: dist})
			}
		}
		crossPairs[ti] = pairs
		return nil
	}); err != nil {
		return err
	}

	// Emit: intra-shard pairs in shard order (each in its engine's
	// order), then cross-shard pairs sorted by (R, S) — a deterministic
	// routed order.
	var cross []wire.Pair
	for _, pairs := range crossPairs {
		cross = append(cross, pairs...)
	}
	sort.Slice(cross, func(a, b int) bool {
		if cross[a].R != cross[b].R {
			return cross[a].R < cross[b].R
		}
		return cross[a].S < cross[b].S
	})
	r.mergeStreams.Observe(float64(len(ds.shards) + len(tasks)))

	frames := wire.NewBatcher[wire.Pair](w)
	for _, pairs := range append(selfPairs, cross) {
		for _, p := range pairs {
			if err := frames.Add(p); err != nil {
				return err
			}
		}
	}
	if err := frames.Flush(); err != nil {
		return err
	}
	return w.Send(wire.KindEnd, &wire.StreamEnd{Count: frames.Count})
}

// --- distributed ANN self-join ----------------------------------------------
//
// The all-k-nearest-neighbor self-join decomposes into a per-shard
// self-join plus a boundary fix-up: a point's true neighbors can only
// lie outside its shard if another shard's boundary MBR is closer than
// its k-th within-shard neighbor (MINDIST(p, MBR) ≤ bound). The router
// gathers the per-shard joins, computes each point's candidate foreign
// shards from its within-shard bound, batches the surviving probes as
// one BatchKNN per foreign shard, and merges per point by (distance,
// global id). Shards carry contiguous global-id ranges in curve order,
// so emitting shard streams in shard order yields the same ascending-id
// result stream a single node produces over the curve-ordered dataset.

func (r *Router) handleJoin(ctx context.Context, req *wire.JoinReq, w *wire.ResponseWriter) error {
	if !req.Self {
		return wire.BadRequest("the router distributes self-joins of one routed dataset; got R=%q, S=%q (run cross-dataset joins on a single backend)", req.R, req.S)
	}
	ds, err := r.dataset(req.R)
	if err != nil {
		return err
	}
	if req.K < 1 {
		return wire.BadRequest("k must be at least 1, got %d", req.K)
	}
	if row := 64 + wire.RowBytes(ds.dim, min(int64(req.K), int64(ds.points()))); row > wire.MaxFrame {
		return wire.BadRequest("a join row with k=%d may need %d bytes, over the %d-byte frame limit", req.K, row, wire.MaxFrame)
	}
	k := int(req.K)
	g := newGather()

	// Phase A: per-shard self-joins, buffered per shard in stream
	// (ascending local id) order.
	type shardResults struct {
		results []wire.Result // local ids, within-shard neighbors
		extra   [][]wire.Neighbor
	}
	perShard := make([]shardResults, len(ds.shards))
	if err := r.scatter(ctx, g, ds.shards, func(s *shard) error {
		var results []wire.Result
		err := s.backend.do(ctx, func(cli *client.Client) error {
			results = results[:0]
			st, err := cli.SelfJoin(ctx, s.name, k)
			if err != nil {
				return err
			}
			for st.Next() {
				results = append(results, st.Result())
			}
			return st.Close()
		})
		if err != nil {
			return err
		}
		// The engine emits traversal order; the routed stream's contract
		// is ascending global id, so canonicalize each shard's slice by
		// local id here (global order then falls out of the contiguous
		// idBase concatenation).
		sort.Slice(results, func(a, b int) bool { return results[a].ID < results[b].ID })
		perShard[s.index] = shardResults{results: results, extra: make([][]wire.Neighbor, len(results))}
		return nil
	}); err != nil {
		return err
	}

	// Phase B: boundary fix-up. For each point, its k-th within-shard
	// distance bounds how far a foreign neighbor can be; foreign shards
	// whose MINDIST to the point exceeds it are pruned, the rest are
	// probed in one BatchKNN per shard.
	type probeRef struct {
		shard int // home shard
		pos   int // position in the home shard's result slice
	}
	probes := make([][]probeRef, len(ds.shards)) // target shard -> refs
	prunedProbes := 0
	for si := range ds.shards {
		for pos, res := range perShard[si].results {
			bound := math.Inf(1)
			if len(res.Neighbors) >= k {
				bound = res.Neighbors[k-1].Dist
			}
			for sj, t := range ds.shards {
				if sj == si {
					continue
				}
				if geom.MinDistPointRect(res.Point, t.mbr) <= bound {
					probes[sj] = append(probes[sj], probeRef{shard: si, pos: pos})
				} else {
					prunedProbes++
				}
			}
		}
	}
	r.prune(prunedProbes)

	var probeShards []*shard
	for sj := range ds.shards {
		if len(probes[sj]) > 0 {
			probeShards = append(probeShards, ds.shards[sj])
		}
	}
	var extraMu sync.Mutex
	if err := r.scatter(ctx, g, probeShards, func(s *shard) error {
		refs := probes[s.index]
		pts := make([][]float64, len(refs))
		for i, ref := range refs {
			pts[i] = perShard[ref.shard].results[ref.pos].Point
		}
		var res []wire.Result
		err := s.backend.do(ctx, func(cli *client.Client) error {
			var err error
			res, err = shardBatchKNN(ctx, cli, s, pts, k)
			return err
		})
		if err != nil {
			return err
		}
		extraMu.Lock()
		for i, ref := range refs {
			home := &perShard[ref.shard]
			home.extra[ref.pos] = append(home.extra[ref.pos], res[i].Neighbors...)
		}
		extraMu.Unlock()
		return nil
	}); err != nil {
		return err
	}

	// Merge and emit in ascending global id order: shards in shard
	// order, points in local order. Each row is the shard's own, turned
	// global in place; only a row with foreign candidates grows.
	r.mergeStreams.Observe(float64(len(ds.shards)))
	frames := wire.NewBatcher[wire.Result](w)
	for si, s := range ds.shards {
		for pos, res := range perShard[si].results {
			s.globalize(res.Neighbors)
			nbs := append(res.Neighbors, perShard[si].extra[pos]...)
			sortNeighbors(nbs)
			res.ID += s.idBase
			res.Neighbors = nbs[:min(len(nbs), k)]
			if err := frames.Add(res); err != nil {
				return err
			}
		}
	}
	if err := frames.Flush(); err != nil {
		return err
	}
	return w.Send(wire.KindEnd, &wire.StreamEnd{Count: frames.Count})
}
