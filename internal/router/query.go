package router

import (
	"cmp"
	"context"
	"math"
	"slices"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/geom"
	"allnn/internal/wire"
)

// --- routed point probes ---------------------------------------------------
//
// Every routed point probe — a kNN, each point of a batch, each row of a
// self-join — is a wire.Result row whose Point is the probe and whose
// Neighbors are its candidates, answered in two phases after the paper's
// bound structure:
//
//  1. The shard owning the probe's curve key answers first (a self-join
//     row's home shard already has, in its own join).
//  2. The row goes on to every other shard whose MINDIST(point, MBR)
//     does not exceed the row's bound (see bound); the rest are pruned.
//
// Replies are appended to the rows in shard order, and each row is
// sorted by (distance, global id) and cut to k once, at the end. A
// request that needs a shard it cannot reach fails rather than answering
// over the others, so the bound's NXNDIST terms, which hold because the
// shard's points exist, are always safe.

// routeKNN answers rows with their k nearest neighbors over ds, in global
// ids: each row goes to its owner shard, then fans out.
func (r *Router) routeKNN(ctx context.Context, g *gather, ds *dataset, rows []wire.Result, k int) error {
	owners := make([]int, len(rows))
	groups := make([][]int, len(ds.shards))
	for i := range rows {
		owners[i] = ds.locate(rows[i].Point)
		groups[owners[i]] = append(groups[owners[i]], i)
	}
	if err := r.ask(ctx, g, ds, rows, groups, k); err != nil {
		return err
	}
	if _, err := r.fanOut(ctx, g, ds, rows, func(i int) int { return owners[i] }, k); err != nil {
		return err
	}
	for i := range rows {
		rows[i].Neighbors = topK(rows[i].Neighbors, k)
	}
	return nil
}

// fanOut sends each row that has a Point to every shard but its owner
// whose MINDIST to the point the row's bound cannot prune, and appends
// the answers to the row's candidates, unsorted. It returns how many
// probes it sent, each one reply row.
func (r *Router) fanOut(ctx context.Context, g *gather, ds *dataset, rows []wire.Result, owner func(row int) int, k int) (int, error) {
	groups := make([][]int, len(ds.shards))
	pruned, n := 0, 0
	for i, row := range rows {
		if row.Point == nil {
			continue
		}
		own := owner(i)
		b := bound(ds, own, row.Point, row.Neighbors, k)
		for si, s := range ds.shards {
			if si == own {
				continue
			}
			if geom.MinDistPointRect(row.Point, s.mbr) <= b {
				groups[si] = append(groups[si], i)
				n++
			} else {
				pruned++
			}
		}
	}
	r.prune(pruned)
	return n, r.ask(ctx, g, ds, rows, groups, k)
}

// ask sends every shard with a group its rows' points — one KNN for a
// group of one, else one BatchKNN — and, once the legs are in, appends
// the answers, in global ids, to the rows in shard order.
func (r *Router) ask(ctx context.Context, g *gather, ds *dataset, rows []wire.Result, groups [][]int, k int) error {
	var shards []*shard
	for si, s := range ds.shards {
		if len(groups[si]) > 0 {
			shards = append(shards, s)
		}
	}
	replies := make([][]wire.Result, len(ds.shards))
	if err := r.scatter(ctx, g, shards, func(s *shard) error {
		group := groups[s.index]
		return s.backend.do(ctx, func(cli *client.Client) error {
			if len(group) == 1 {
				nbs, err := cli.KNN(ctx, s.name, rows[group[0]].Point, k)
				replies[s.index] = []wire.Result{{Neighbors: nbs}}
				return err
			}
			pts := make([][]float64, len(group))
			for i, ri := range group {
				pts[i] = rows[ri].Point
			}
			var err error
			replies[s.index], err = cli.BatchKNN(ctx, s.name, pts, k)
			return err
		})
	}); err != nil {
		return err
	}
	for _, s := range shards {
		for i, res := range replies[s.index] {
			s.globalize(res.Neighbors)
			row := &rows[groups[s.index][i]]
			if len(row.Neighbors) == 0 {
				row.Neighbors = res.Neighbors
			} else {
				row.Neighbors = append(row.Neighbors, res.Neighbors...)
			}
		}
	}
	return nil
}

// bound returns a row's pruning radius, an upper bound on its true k-th
// neighbor distance: its k-th candidate distance once it has k (the
// candidates of one shard, in ascending distance), else the k-th
// smallest of its candidate distances and NXNDIST(point, MBR) for every
// non-empty shard but the owner — each such shard holds a point within
// that distance (Lemma 3.1), and none of them is a candidate. The
// owner's NXNDIST is left out: the point itself may be the owner's
// point that meets it, and a self-join row does not count itself.
func bound(ds *dataset, owner int, p geom.Point, cands []wire.Neighbor, k int) float64 {
	if len(cands) >= k {
		return cands[k-1].Dist
	}
	dists := make([]float64, 0, len(cands)+len(ds.shards))
	for _, c := range cands {
		dists = append(dists, c.Dist)
	}
	for si, s := range ds.shards {
		if si != owner && s.count > 0 {
			dists = append(dists, geom.NXNDist(geom.PointRect(p), s.mbr))
		}
	}
	if len(dists) < k {
		return math.Inf(1)
	}
	slices.Sort(dists)
	return dists[k-1]
}

// globalize turns a shard's local neighbor ids into global ones, in
// place: the client hands back the rows it decoded, the router's to
// keep.
func (s *shard) globalize(nbs []wire.Neighbor) {
	for i := range nbs {
		nbs[i].ID += s.idBase
	}
}

// topK sorts a row's candidates by ascending distance, ties by ascending
// global id — the canonical merged order — and cuts them to k.
func topK(nbs []wire.Neighbor, k int) []wire.Neighbor {
	slices.SortStableFunc(nbs, func(a, b wire.Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return nbs[:min(len(nbs), k)]
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
	rows := []wire.Result{{Point: req.Point}}
	if err := r.routeKNN(ctx, newGather(), ds, rows, int(req.K)); err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.KNNReply{Neighbors: rows[0].Neighbors})
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
	rows := make([]wire.Result, len(req.Points))
	for i, p := range req.Points {
		rows[i] = wire.Result{ID: uint64(i), Point: p}
	}
	if err := r.routeKNN(ctx, newGather(), ds, rows, int(req.K)); err != nil {
		return err
	}
	return w.Send(wire.KindResult, &wire.BatchKNNReply{Results: rows})
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
