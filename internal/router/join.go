package router

import (
	"context"
	"fmt"
	"math"
	"sort"

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
// with one box query each (client.Range) and brute-forces the strip
// product locally.
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
				st.ids, st.pts, err = cli.Range(ctx, s.name, box.Lo, box.Hi)
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
	return frames.End()
}

// --- distributed ANN self-join ----------------------------------------------
//
// The all-k-nearest-neighbor self-join decomposes into a per-shard
// self-join plus a boundary fix-up: a point's true neighbors can only
// lie outside its shard if another shard's boundary MBR is closer than
// its k-th within-shard neighbor (MINDIST(p, MBR) ≤ bound). The router
// streams it shard by shard, one shard read ahead, with rows at their
// local id: shards carry contiguous global-id ranges in curve order, so
// the stream is in ascending global id.

// readShard reads shard s's self-join on a goroutine of its own, which
// holds a fan-out slot and a connection only while it reads, never while
// the emitter waits on the client; wait hands the rows over.
func (r *Router) readShard(ctx context.Context, s *shard, k int) (wait func() ([]wire.Result, error)) {
	var rows []wire.Result
	done := make(chan error, 1)
	r.legGoroutines.Inc()
	go func() {
		done <- r.scatter(ctx, newGather(), []*shard{s}, func(s *shard) error {
			return s.backend.do(ctx, func(cli *client.Client) (err error) {
				rows, err = s.selfJoin(ctx, cli, k)
				return err
			})
		})
	}()
	return func() ([]wire.Result, error) {
		err := <-done
		return rows, err
	}
}

// selfJoin places each row of the shard's self-join at its local id, in
// global neighbor ids; an empty slot is a point the backend no longer
// holds. An id beyond the map's count, or repeated, is a write the map
// never heard of: the join fails rather than emit another shard's ids.
func (s *shard) selfJoin(ctx context.Context, cli *client.Client, k int) ([]wire.Result, error) {
	st, err := cli.SelfJoin(ctx, s.name, k)
	if err != nil {
		return nil, err
	}
	rows := make([]wire.Result, s.count)
	for st.Next() {
		res := st.Result()
		if res.ID >= s.count || rows[res.ID].Point != nil {
			st.Close() // drains the stream: the connection stays usable
			return nil, &wire.Error{Code: wire.CodeInternal, Msg: fmt.Sprintf("shard %s streamed local id %d again or beyond its map count %d: the shard map is stale", s.name, res.ID, s.count)}
		}
		s.globalize(res.Neighbors)
		rows[res.ID] = res
	}
	return rows, st.Close()
}

// fixUp sends each of shard home's rows to the foreign shards its k-th
// distance cannot prune, one BatchKNN per shard, and appends the answers
// to the rows' neighbors. It returns how many rows the replies held.
func (r *Router) fixUp(ctx context.Context, g *gather, ds *dataset, home int, rows []wire.Result, k int) (int, error) {
	probes := make([][]int, len(ds.shards)) // foreign shard -> row positions
	pruned, n := 0, 0
	for pos, res := range rows {
		if res.Point == nil {
			continue
		}
		bound := math.Inf(1)
		if len(res.Neighbors) >= k {
			bound = res.Neighbors[k-1].Dist
		}
		for sj, t := range ds.shards {
			if sj == home {
				continue
			}
			if geom.MinDistPointRect(res.Point, t.mbr) <= bound {
				probes[sj] = append(probes[sj], pos)
				n++
			} else {
				pruned++
			}
		}
	}
	r.prune(pruned)
	var targets []*shard
	for sj := range ds.shards {
		if len(probes[sj]) > 0 {
			targets = append(targets, ds.shards[sj])
		}
	}
	replies := make([][]wire.Result, len(ds.shards))
	if err := r.scatter(ctx, g, targets, func(s *shard) error {
		pts := make([][]float64, len(probes[s.index]))
		for i, pos := range probes[s.index] {
			pts[i] = rows[pos].Point
		}
		return s.backend.do(ctx, func(cli *client.Client) (err error) {
			replies[s.index], err = shardBatchKNN(ctx, cli, s, pts, k)
			return err
		})
	}); err != nil {
		return 0, err
	}
	for sj, positions := range probes {
		for i, pos := range positions {
			rows[pos].Neighbors = append(rows[pos].Neighbors, replies[sj][i].Neighbors...)
		}
	}
	return n, nil
}

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

	// Every shard answers before the first row goes out (shard 0 with its
	// join, the others with a List), so a shard down on arrival fails the
	// stream with no row; one lost later ends it with its error, never END.
	next := r.readShard(ctx, ds.shards[0], k)
	defer func() {
		if next != nil {
			next() // no read outlives the request
		}
	}()
	if err := r.scatter(ctx, g, ds.shards[1:], func(s *shard) error {
		return s.backend.do(ctx, func(cli *client.Client) error {
			_, err := cli.List(ctx)
			return err
		})
	}); err != nil {
		return err
	}
	// Shard i is fixed up and emitted while shard i+1 is read, and dropped
	// before shard i+2 is; held is shard i's rows and fix-up replies.
	r.mergeStreams.Observe(float64(len(ds.shards)))
	frames := wire.NewBatcher[wire.Result](w)
	held := 0
	for i, s := range ds.shards {
		rows, err := next()
		next = nil
		if err != nil {
			return err
		}
		r.joinBuffered.SetMax(int64(held + len(rows)))
		if i+1 < len(ds.shards) {
			next = r.readShard(ctx, ds.shards[i+1], k)
		}
		fixups, err := r.fixUp(ctx, g, ds, i, rows, k)
		if err != nil {
			return err
		}
		held = len(rows) + fixups
		for _, res := range rows {
			if res.Point == nil {
				continue
			}
			sortNeighbors(res.Neighbors)
			res.ID += s.idBase
			res.Neighbors = res.Neighbors[:min(len(res.Neighbors), k)]
			if err := frames.Add(res); err != nil {
				return err
			}
		}
		if err := frames.Flush(); err != nil {
			return err
		}
	}
	return frames.End()
}
