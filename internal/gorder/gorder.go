package gorder

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"allnn/internal/core"
	"allnn/internal/extsort"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/obs"
	"allnn/internal/pq"
	"allnn/internal/storage"
)

// Options configures a GORDER join.
type Options struct {
	// K is the number of neighbors per query point (0 means 1).
	K int
	// Segments is the number of grid segments per dimension used by the
	// grid-order sort (the paper's suggested value is around 100; 0 means
	// 100).
	Segments int
	// ExcludeSelf skips neighbors with the query point's own ObjectID.
	ExcludeSelf bool
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	if o.Segments <= 0 {
		o.Segments = 100
	}
	return o
}

// Stats counts the work performed.
type Stats struct {
	// BlocksRead counts inner (S) data pages fetched during the join.
	BlocksRead uint64
	// BlockPairsPruned counts (outer chunk, S block) pairs skipped by the
	// block-level distance test without touching the page.
	BlockPairsPruned uint64
	// PointDistCalcs counts object-level distance computations (including
	// partially evaluated ones).
	PointDistCalcs uint64
	// Chunks counts outer-chunk iterations (full scans of S metadata).
	Chunks uint64
}

// AddTo accumulates the counters into a metrics registry under the
// "gorder" family (see DESIGN.md §10).
func (s Stats) AddTo(r *obs.Registry) {
	r.Counter("gorder.blocks_read").Add(s.BlocksRead)
	r.Counter("gorder.block_pairs_pruned").Add(s.BlockPairsPruned)
	r.Counter("gorder.point_dist_calcs").Add(s.PointDistCalcs)
	r.Counter("gorder.chunks").Add(s.Chunks)
}

// Dataset pairs ids with points.
type Dataset struct {
	IDs    []index.ObjectID
	Points []geom.Point
}

// FromPoints wraps pts with ids 0..n-1.
func FromPoints(pts []geom.Point) Dataset {
	ids := make([]index.ObjectID, len(pts))
	for i := range ids {
		ids[i] = index.ObjectID(i)
	}
	return Dataset{IDs: ids, Points: pts}
}

// Join computes, for every point of r, its k nearest neighbors in s,
// calling emit once per r point. All data passes through pool: the
// grid-ordered datasets are written to paged files in pool's store, and
// the block nested loops join reads them back through the pool, so its
// buffer statistics reflect GORDER's true I/O behaviour (including its
// sensitivity to the pool size, paper Figure 3(b)).
func Join(r, s Dataset, pool *storage.BufferPool, opts Options, emit func(core.Result) error) (Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	if len(r.Points) == 0 {
		return stats, nil
	}
	if len(s.Points) == 0 {
		for i := range r.Points {
			if err := emit(core.Result{ID: uint64(r.IDs[i]), Point: r.Points[i]}); err != nil {
				return stats, err
			}
		}
		return stats, nil
	}
	if len(r.Points[0]) != len(s.Points[0]) {
		return stats, fmt.Errorf("gorder: dimensionality mismatch: %d vs %d",
			len(r.Points[0]), len(s.Points[0]))
	}

	// Phase 1: PCA transform of the union space (distance-preserving).
	tr, ts, err := pcaTransform(r.Points, s.Points)
	if err != nil {
		return stats, err
	}

	// Phase 2: grid-order sort of both transformed datasets — an external
	// merge sort through the buffer pool, as in the paper (its datasets
	// do not fit memory) — written back to paged files through the pool.
	bounds := unionBounds(tr, ts)
	sortBudget := pool.NumFrames() * 600 // items the in-memory run may hold
	orderR, err := gridOrder(pool, tr, bounds, opts.Segments, sortBudget)
	if err != nil {
		return stats, err
	}
	orderS, err := gridOrder(pool, ts, bounds, opts.Segments, sortBudget)
	if err != nil {
		return stats, err
	}
	fileR, err := writePaged(pool, tr, r.IDs, orderR)
	if err != nil {
		return stats, err
	}
	fileS, err := writePaged(pool, ts, s.IDs, orderS)
	if err != nil {
		return stats, err
	}

	// Phase 3: scheduled block nested loops join. The outer chunk size is
	// tied to the buffer budget: all but two frames hold outer pages, the
	// rest stream the inner file.
	chunkPages := pool.NumFrames() - 2
	if chunkPages < 1 {
		chunkPages = 1
	}

	// GORDER scans S exhaustively per chunk and can therefore skip the
	// self pairing by id during the scan, so k candidates suffice even
	// for self-joins.
	rLookup := makeLookup(r)
	sLookup := makeLookup(s)
	for chunkStart := 0; chunkStart < len(fileR.pages); chunkStart += chunkPages {
		chunkEnd := chunkStart + chunkPages
		if chunkEnd > len(fileR.pages) {
			chunkEnd = len(fileR.pages)
		}
		stats.Chunks++
		if err := joinChunk(pool, fileR, fileS, chunkStart, chunkEnd, opts, &stats,
			rLookup, sLookup, emit); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// joinChunk joins outer pages [chunkStart, chunkEnd) against the whole
// inner file.
func joinChunk(pool *storage.BufferPool, fileR, fileS *pagedFile, chunkStart, chunkEnd int,
	opts Options, stats *Stats, rLookup, sLookup map[index.ObjectID]geom.Point,
	emit func(core.Result) error) error {

	type queryState struct {
		id   index.ObjectID
		pt   geom.Point // transformed coordinates
		best *pq.KBest[index.ObjectID]
	}
	// The chunk keeps its outer-block structure: the two-tier pruning of
	// the paper tests (outer block, inner block) pairs on their grid MBRs
	// before touching the inner page, then individual points against the
	// inner block MBR.
	type rBlock struct {
		mbr    geom.Rect
		points []queryState
	}
	var blocks []rBlock
	chunkMBR := geom.EmptyRect(fileR.dim)
	for pg := chunkStart; pg < chunkEnd; pg++ {
		objs, err := fileR.readBlock(pool, pg)
		if err != nil {
			return err
		}
		blk := rBlock{mbr: fileR.blockMBR[pg]}
		for _, o := range objs {
			blk.points = append(blk.points, queryState{id: o.id, pt: o.pt, best: pq.NewKBest[index.ObjectID](opts.K)})
		}
		blocks = append(blocks, blk)
		chunkMBR.ExpandRect(blk.mbr)
	}

	_ = chunkMBR
	// blockBound is the pruning bound of one outer block: every point in
	// it has its k-th candidate within this squared distance (+Inf until
	// all points have k candidates).
	blockBound := func(b *rBlock) float64 {
		worst := 0.0
		for i := range b.points {
			if w := b.points[i].best.Worst(); w > worst {
				worst = w
			}
		}
		return worst
	}

	// The scheduled join runs per outer block: each outer block visits
	// the inner blocks in ascending distance from *itself*, stopping when
	// the next inner block is farther than its bound. Near blocks thus
	// tighten the bounds before far ones are considered, and far ones are
	// pruned without ever being read — while the buffer pool's caching
	// makes the repeated inner reads across outer blocks cheap exactly
	// when the pool is large (the paper's Figure 3(b) effect).
	type sched struct {
		pg   int
		dist float64
	}
	order := make([]sched, len(fileS.pages))
	for bi := range blocks {
		rb := &blocks[bi]
		for i := range fileS.pages {
			order[i] = sched{pg: i, dist: geom.MinDistSq(rb.mbr, fileS.blockMBR[i])}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].dist < order[b].dist })
		for rank, blk := range order {
			if blk.dist > blockBound(rb) {
				stats.BlockPairsPruned += uint64(len(order) - rank)
				break
			}
			blockMBR := fileS.blockMBR[blk.pg]
			objs, err := fileS.readBlock(pool, blk.pg)
			if err != nil {
				return err
			}
			stats.BlocksRead++
			for i := range rb.points {
				q := &rb.points[i]
				// Tier 2: point-block pruning.
				if geom.MinDistPointRectSq(q.pt, blockMBR) > q.best.Worst() {
					continue
				}
				for _, o := range objs {
					if opts.ExcludeSelf && o.id == q.id {
						continue
					}
					stats.PointDistCalcs++
					if d, ok := distSqWithin(q.pt, o.pt, q.best.Worst()); ok {
						q.best.Add(d, o.id)
					}
				}
			}
		}
	}

	// Emit results, mapping ids back to original-space points.
	for bi := range blocks {
		for i := range blocks[bi].points {
			q := &blocks[bi].points[i]
			items := q.best.Items()
			neighbors := make([]core.Neighbor, 0, len(items))
			for _, it := range items {
				neighbors = append(neighbors, core.Neighbor{
					ID:    uint64(it.Value),
					Point: sLookup[it.Value],
					Dist:  math.Sqrt(it.Key),
				})
			}
			if err := emit(core.Result{ID: uint64(q.id), Point: rLookup[q.id], Neighbors: neighbors}); err != nil {
				return err
			}
		}
	}
	return nil
}

// distSqWithin computes the squared distance between p and q but aborts
// as soon as the partial sum exceeds limit — GORDER's object-level
// "pruning during distance computation". The boolean reports whether the
// full distance is below the limit.
func distSqWithin(p, q geom.Point, limit float64) (float64, bool) {
	var sum float64
	for d := range p {
		diff := p[d] - q[d]
		sum += diff * diff
		if sum >= limit {
			return sum, false
		}
	}
	return sum, true
}

func makeLookup(ds Dataset) map[index.ObjectID]geom.Point {
	m := make(map[index.ObjectID]geom.Point, len(ds.IDs))
	for i, id := range ds.IDs {
		m[id] = ds.Points[i]
	}
	return m
}

func unionBounds(a, b []geom.Point) geom.Rect {
	r := geom.EmptyRect(len(a[0]))
	for _, p := range a {
		r.ExpandPoint(p)
	}
	for _, p := range b {
		r.ExpandPoint(p)
	}
	return r
}

// gridOrder returns point indices sorted by the lexicographic grid-cell
// order of the paper: cell ids per dimension (principal component first),
// segments cells per dimension. The sort is external (runs of at most
// runItems items, spilled and merged through pool).
//
// Cell keys pack 10 bits per dimension for the first six dimensions: the
// dimensions are PCA-ordered by descending variance, so the remaining
// ones contribute negligibly to locality, and GORDER's pruning relies on
// block MBRs rather than exact cell order anyway.
func gridOrder(pool *storage.BufferPool, pts []geom.Point, bounds geom.Rect, segments, runItems int) ([]int, error) {
	if segments > 1024 {
		segments = 1024 // 10 bits per packed dimension
	}
	dim := bounds.Dim()
	if dim > 6 {
		dim = 6
	}
	cellOf := func(p geom.Point, d int) uint64 {
		extent := bounds.Hi[d] - bounds.Lo[d]
		if extent <= 0 {
			return 0
		}
		c := int((p[d] - bounds.Lo[d]) / extent * float64(segments))
		if c >= segments {
			c = segments - 1
		}
		if c < 0 {
			c = 0
		}
		return uint64(c)
	}
	items := make([]extsort.Item, len(pts))
	for i, p := range pts {
		var key uint64
		for d := 0; d < dim; d++ {
			key = key<<10 | cellOf(p, d)
		}
		items[i] = extsort.Item{Key: key, Value: uint32(i)}
	}
	sorted, err := extsort.Sort(pool, items, runItems)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(sorted))
	for i, it := range sorted {
		idx[i] = int(it.Value)
	}
	return idx, nil
}

// --- paged data files --------------------------------------------------------

// Page layout: uint16 count, 2 bytes pad, then count * (uint64 id + dim
// float64 coordinates).
type pagedObj struct {
	id index.ObjectID
	pt geom.Point
}

type pagedFile struct {
	dim      int
	pages    []storage.PageID
	blockMBR []geom.Rect // in-memory per-block MBR summary (the paper's grid metadata)
}

func pageCapacity(dim int) int {
	return (storage.PageSize - 4) / (8 + 8*dim)
}

// writePaged stores pts (visited in the given order) as a paged file in
// pool's store, returning the file descriptor with per-block MBRs.
func writePaged(pool *storage.BufferPool, pts []geom.Point, ids []index.ObjectID, order []int) (*pagedFile, error) {
	dim := len(pts[0])
	capacity := pageCapacity(dim)
	pf := &pagedFile{dim: dim}
	for start := 0; start < len(order); start += capacity {
		end := start + capacity
		if end > len(order) {
			end = len(order)
		}
		f, err := pool.NewPage()
		if err != nil {
			return nil, err
		}
		data := f.Data()
		binary.LittleEndian.PutUint16(data, uint16(end-start))
		off := 4
		mbr := geom.EmptyRect(dim)
		for _, i := range order[start:end] {
			binary.LittleEndian.PutUint64(data[off:], uint64(ids[i]))
			off += 8
			for d := 0; d < dim; d++ {
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(pts[i][d]))
				off += 8
			}
			mbr.ExpandPoint(pts[i])
		}
		f.MarkDirty()
		pid := f.ID()
		f.Release()
		pf.pages = append(pf.pages, pid)
		pf.blockMBR = append(pf.blockMBR, mbr)
	}
	return pf, nil
}

// readBlock fetches one page of the file through the pool.
func (pf *pagedFile) readBlock(pool *storage.BufferPool, pg int) ([]pagedObj, error) {
	f, err := pool.Get(pf.pages[pg])
	if err != nil {
		return nil, err
	}
	defer f.Release()
	data := f.Data()
	count := int(binary.LittleEndian.Uint16(data))
	out := make([]pagedObj, count)
	off := 4
	for i := 0; i < count; i++ {
		o := pagedObj{
			id: index.ObjectID(binary.LittleEndian.Uint64(data[off:])),
			pt: make(geom.Point, pf.dim),
		}
		off += 8
		for d := 0; d < pf.dim; d++ {
			o.pt[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		out[i] = o
	}
	return out, nil
}
