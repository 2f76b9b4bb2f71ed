package router

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/geom"
	"allnn/internal/wire"
)

// --- kNN (point and batch) --------------------------------------------------
//
// Routed kNN is two-phase, after the paper's bound structure:
//
//  1. The shard owning the query point's curve key answers first; its
//     k-th neighbor distance is an upper bound on the true k-th
//     distance. Before any shard answers, the NXNDIST seed already
//     bounds the radius: every shard MBR guarantees one point within
//     NXNDIST(q, MBR) of q (Lemma 3.1), so the k-th smallest NXNDIST
//     across shards bounds the k-th neighbor distance.
//  2. Only the shards whose MINDIST(q, MBR) does not exceed the bound
//     are contacted; the rest are pruned. Gathered candidates merge by
//     (distance, global id).
//
// The NXNDIST seed is geometric: it holds whether or not the shard's
// backend is reachable, because the shard's points exist either way.
// A request that needs a shard it cannot reach fails rather than
// answering over the others, so the seed is always safe.

// shardBatchKNN asks shard s, over cli, for the k nearest neighbors of
// each of qs in one BatchKNN request, in global ids.
func shardBatchKNN(ctx context.Context, cli *client.Client, s *shard, qs [][]float64, k int) ([]wire.Result, error) {
	res, err := cli.BatchKNN(ctx, s.name, qs, k)
	for i := range res {
		s.globalize(res[i].Neighbors)
	}
	return res, err
}

// globalize turns a shard's local neighbor ids into global ones, in
// place: the client hands back the rows it decoded, the router's to
// keep.
func (s *shard) globalize(nbs []wire.Neighbor) {
	for i := range nbs {
		nbs[i].ID += s.idBase
	}
}

// mergeTopK merges one shard's answer, in global ids, into a query's
// candidates, kept in canonical order and cut to k so the k-th distance
// bound and the final top-k fall out directly. The first answer becomes
// the candidate list itself.
func mergeTopK(cands, nbs []wire.Neighbor, k int) []wire.Neighbor {
	if len(cands) == 0 {
		cands = nbs
	} else {
		cands = append(cands, nbs...)
	}
	sortNeighbors(cands)
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// knnBound returns a query's pruning radius: the k-th candidate distance
// once k candidates are gathered, else the seed. Either bounds the true
// k-th distance, so neither prunes a shard that could contribute; the
// seed costs an NXNDIST per shard and a sort, so it is computed only
// for a query still short of k.
func knnBound(ds *dataset, q geom.Point, cands []wire.Neighbor, k int) float64 {
	if len(cands) >= k {
		return cands[k-1].Dist
	}
	return nxnSeed(ds, q, k)
}

// sortNeighbors orders by ascending distance, ties by ascending global
// id — the canonical merged order.
func sortNeighbors(nbs []wire.Neighbor) {
	slices.SortStableFunc(nbs, func(a, b wire.Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// nxnSeed returns the k-th smallest NXNDIST(q, shard MBR) across
// shards — the pre-contact bound on the k-th neighbor distance — or
// +Inf when fewer than k shards exist.
func nxnSeed(ds *dataset, q geom.Point, k int) float64 {
	dists := make([]float64, 0, len(ds.shards))
	for _, s := range ds.shards {
		if s.count == 0 {
			continue
		}
		dists = append(dists, geom.NXNDist(geom.PointRect(q), s.mbr))
	}
	if len(dists) < k {
		return math.Inf(1)
	}
	sort.Float64s(dists)
	return dists[k-1]
}

// routedBatch answers a batch of kNN probes with grouped two-phase
// scatter: one BatchKNN per owner shard, then one BatchKNN per
// fan-out shard carrying every query that could not prune it. Returns
// per-query neighbor lists (request order) and the pruned-shard count.
func (r *Router) routedBatch(ctx context.Context, g *gather, ds *dataset, queries [][]float64, k int) ([][]wire.Neighbor, int, error) {
	cands := make([][]wire.Neighbor, len(queries))
	owners := make([]int, len(queries))
	// Per shard: the query indices of the running phase, and its reply.
	groups := make([][]int, len(ds.shards))
	replies := make([][]wire.Result, len(ds.shards))

	// runPhase sends every shard with a group its probes as one BatchKNN
	// and, once the legs are in, merges the replies in shard order.
	runPhase := func() error {
		var shards []*shard
		for si, s := range ds.shards {
			if len(groups[si]) > 0 {
				shards = append(shards, s)
			}
		}
		if err := r.scatter(ctx, g, shards, func(s *shard) error {
			qidx := groups[s.index]
			pts := make([][]float64, len(qidx))
			for i, qi := range qidx {
				pts[i] = queries[qi]
			}
			return s.backend.do(ctx, func(cli *client.Client) error {
				var err error
				replies[s.index], err = shardBatchKNN(ctx, cli, s, pts, k)
				return err
			})
		}); err != nil {
			return err
		}
		for _, s := range shards {
			for i, res := range replies[s.index] {
				qi := groups[s.index][i]
				cands[qi] = mergeTopK(cands[qi], res.Neighbors, k)
			}
			groups[s.index], replies[s.index] = groups[s.index][:0], nil
		}
		return nil
	}

	// Phase 1: every query to its owner shard.
	for qi, q := range queries {
		owners[qi] = ds.locate(q)
		groups[owners[qi]] = append(groups[owners[qi]], qi)
	}
	if err := runPhase(); err != nil {
		return nil, 0, err
	}

	// Phase 2: per query, fan out only to the shards whose MINDIST beats
	// the bound gathered so far.
	pruned := 0
	for qi, q := range queries {
		b := knnBound(ds, q, cands[qi], k)
		for si, s := range ds.shards {
			if si == owners[qi] {
				continue
			}
			if geom.MinDistPointRect(q, s.mbr) <= b {
				groups[si] = append(groups[si], qi)
			} else {
				pruned++
			}
		}
	}
	if err := runPhase(); err != nil {
		return nil, 0, err
	}
	return cands, pruned, nil
}

func (r *Router) handleKNN(ctx context.Context, req *wire.KNNReq, w *wire.ResponseWriter) error {
	ds, err := r.dataset(req.Index)
	if err != nil {
		return err
	}
	if req.K < 1 {
		return wire.BadRequest("k must be at least 1, got %d", req.K)
	}
	if len(req.Point) != ds.dim {
		return wire.BadRequest("query point has %d dims, dataset %q has %d", len(req.Point), req.Index, ds.dim)
	}
	k := int(req.K)
	g := newGather()
	// probe asks the given shards for their k nearest and merges the
	// answers in shard order.
	replies := make([][]wire.Neighbor, len(ds.shards))
	var cands []wire.Neighbor
	probe := func(shards []*shard) error {
		if err := r.scatter(ctx, g, shards, func(s *shard) error {
			return s.backend.do(ctx, func(cli *client.Client) error {
				nbs, err := cli.KNN(ctx, s.name, req.Point, k)
				s.globalize(nbs)
				replies[s.index] = nbs
				return err
			})
		}); err != nil {
			return err
		}
		for _, s := range shards {
			cands = mergeTopK(cands, replies[s.index], k)
		}
		return nil
	}

	// Phase 1: the owner alone. Phase 2: the shards its bound cannot
	// prune — on clustered data, usually none.
	owner := ds.locate(req.Point)
	if err := probe(ds.shards[owner : owner+1]); err != nil {
		return err
	}
	b := knnBound(ds, req.Point, cands, k)
	var fan []*shard
	for si, s := range ds.shards {
		if si == owner {
			continue
		}
		if geom.MinDistPointRect(req.Point, s.mbr) <= b {
			fan = append(fan, s)
		}
	}
	if err := probe(fan); err != nil {
		return err
	}
	r.prune(len(ds.shards) - 1 - len(fan))
	return w.Send(wire.KindResult, &wire.KNNReply{Neighbors: cands})
}

func (r *Router) handleBatchKNN(ctx context.Context, req *wire.BatchKNNReq, w *wire.ResponseWriter) error {
	ds, err := r.dataset(req.Index)
	if err != nil {
		return err
	}
	if req.K < 1 {
		return wire.BadRequest("k must be at least 1, got %d", req.K)
	}
	for i, p := range req.Points {
		if len(p) != ds.dim {
			return wire.BadRequest("query point %d has %d dims, dataset %q has %d", i, len(p), req.Index, ds.dim)
		}
	}
	if err := wire.CheckBatchReply(len(req.Points), ds.dim, int64(req.K), int64(ds.points())); err != nil {
		return err
	}
	g := newGather()
	res, pruned, err := r.routedBatch(ctx, g, ds, req.Points, int(req.K))
	if err != nil {
		return err
	}
	r.prune(pruned)
	results := make([]wire.Result, len(req.Points))
	for i, p := range req.Points {
		results[i] = wire.Result{ID: uint64(i), Point: p, Neighbors: res[i]}
	}
	return w.Send(wire.KindResult, &wire.BatchKNNReply{Results: results})
}

// --- box queries ------------------------------------------------------------

// boxShards validates the box and selects the shards whose boundary
// MBR intersects it, counting the rest as pruned.
func (r *Router) boxShards(ds *dataset, name string, lo, hi []float64) ([]*shard, *wire.Error) {
	if len(lo) != ds.dim || len(hi) != ds.dim {
		return nil, wire.BadRequest("box dims (%d, %d) do not match dataset %q dim %d", len(lo), len(hi), name, ds.dim)
	}
	for d := range lo {
		if lo[d] > hi[d] {
			return nil, wire.BadRequest("inverted box bounds in dimension %d: [%g, %g]", d, lo[d], hi[d])
		}
	}
	box := geom.Rect{Lo: lo, Hi: hi}
	var hit []*shard
	pruned := 0
	for _, s := range ds.shards {
		if s.mbr.Intersects(box) {
			hit = append(hit, s)
		} else {
			pruned++
		}
	}
	r.prune(pruned)
	return hit, nil
}

// handleRange runs the box on every shard it can touch, in parallel, and
// streams the rows shard by shard, each shard's sorted by local id.
// Shards carry contiguous global-id ranges in curve order, so the stream
// is in ascending global id (a single node's traversal order does not
// survive a merge).
func (r *Router) handleRange(ctx context.Context, req *wire.RangeReq, w *wire.ResponseWriter) error {
	ds, err := r.dataset(req.Index)
	if err != nil {
		return err
	}
	hit, werr := r.boxShards(ds, req.Index, req.Lo, req.Hi)
	if werr != nil {
		return werr
	}
	rows := make([][]wire.Result, len(ds.shards))
	if err := r.scatter(ctx, newGather(), hit, func(s *shard) error {
		var ids []uint64
		var pts []ann.Point
		err := s.backend.do(ctx, func(cli *client.Client) (err error) {
			ids, pts, err = cli.Range(ctx, s.name, req.Lo, req.Hi)
			return err
		})
		if err != nil {
			return err
		}
		res := make([]wire.Result, len(ids))
		for i, id := range ids {
			res[i] = wire.Result{ID: s.idBase + id, Point: pts[i]}
		}
		slices.SortFunc(res, func(a, b wire.Result) int { return cmp.Compare(a.ID, b.ID) })
		rows[s.index] = res
		return nil
	}); err != nil {
		return err
	}
	frames := wire.NewBatcher[wire.Result](w)
	for _, res := range rows {
		for _, row := range res {
			if err := frames.Add(row); err != nil {
				return err
			}
		}
	}
	return frames.End()
}
