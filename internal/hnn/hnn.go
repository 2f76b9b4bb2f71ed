// Package hnn implements the hash-based ANN baseline (HNN) of Zhang et
// al. (SSDBM 2004), for the case where neither dataset carries an index:
// both datasets are spatially hashed onto a regular grid, the target
// cells are spilled to paged storage, and each query point runs a ring
// search over the grid — its own cell first, then cells at increasing
// Chebyshev ring distance, until the k-th candidate beats the next ring's
// minimum distance.
//
// The paper notes (and our ablation confirms) that building an index and
// running BNN is usually faster, and that spatial hashing is vulnerable
// to skew: a dense cluster lands in one cell whose bucket degenerates to
// a linear scan.
package hnn

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"allnn/internal/core"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/obs"
	"allnn/internal/pq"
	"allnn/internal/storage"
)

// Options configures an HNN run.
type Options struct {
	// K is the number of neighbors per query point (0 means 1).
	K int
	// TargetPerCell sizes the grid: cells are chosen so the average
	// target cell holds about this many points (0 means 64).
	TargetPerCell int
	// ExcludeSelf skips neighbors with the query point's own ObjectID.
	ExcludeSelf bool
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	if o.TargetPerCell <= 0 {
		o.TargetPerCell = 64
	}
	return o
}

// Stats counts the work performed.
type Stats struct {
	Cells          int    // grid cells per dimension
	BucketsSpilled uint64 // non-empty target buckets written to pages
	BucketReads    uint64 // bucket fetches during the search (logical)
	DistCalcs      uint64
	MaxRing        int // widest ring any query had to expand to
}

// AddTo accumulates the run into a metrics registry under the "hnn"
// family (see DESIGN.md §10). Cells and MaxRing are levels, not
// monotonic counts, and publish as gauges.
func (s Stats) AddTo(r *obs.Registry) {
	r.Counter("hnn.buckets_spilled").Add(s.BucketsSpilled)
	r.Counter("hnn.bucket_reads").Add(s.BucketReads)
	r.Counter("hnn.dist_calcs").Add(s.DistCalcs)
	r.Gauge("hnn.cells").Set(int64(s.Cells))
	r.Gauge("hnn.max_ring").Set(int64(s.MaxRing))
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

// Join computes, for every point of r, its k nearest neighbors in s.
// Target buckets are spilled to pages allocated from pool's store and
// read back through the pool during the search.
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
	dim := len(r.Points[0])
	if len(s.Points[0]) != dim {
		return stats, fmt.Errorf("hnn: dimensionality mismatch: %d vs %d", dim, len(s.Points[0]))
	}

	// Grid over the union bounds; cells per dimension chosen so the mean
	// occupied cell holds about TargetPerCell points.
	bounds := geom.EmptyRect(dim)
	for _, p := range r.Points {
		bounds.ExpandPoint(p)
	}
	for _, p := range s.Points {
		bounds.ExpandPoint(p)
	}
	cells := int(math.Round(math.Pow(float64(len(s.Points))/float64(opts.TargetPerCell), 1/float64(dim))))
	if cells < 1 {
		cells = 1
	}
	if cells > 1024 {
		cells = 1024
	}
	stats.Cells = cells
	g := &grid{bounds: bounds, cells: cells, dim: dim}

	// Hash the target points into buckets and spill them to pages.
	bucketPoints := map[uint64][]int{}
	for i, p := range s.Points {
		key := g.key(g.cellOf(p))
		bucketPoints[key] = append(bucketPoints[key], i)
	}
	buckets := make(map[uint64]*bucket, len(bucketPoints))
	for key, idxs := range bucketPoints {
		b, err := spillBucket(pool, s, idxs)
		if err != nil {
			return stats, err
		}
		buckets[key] = b
		stats.BucketsSpilled++
	}

	// Process the query points in cell order for bucket locality.
	order := make([]int, len(r.Points))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return g.key(g.cellOf(r.Points[order[a]])) < g.key(g.cellOf(r.Points[order[b]]))
	})

	for _, i := range order {
		res, err := g.search(pool, buckets, r.IDs[i], r.Points[i], opts, &stats)
		if err != nil {
			return stats, err
		}
		if err := emit(res); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// grid maps points to integer cells.
type grid struct {
	bounds geom.Rect
	cells  int
	dim    int
}

func (g *grid) cellOf(p geom.Point) []int {
	c := make([]int, g.dim)
	for d := 0; d < g.dim; d++ {
		extent := g.bounds.Hi[d] - g.bounds.Lo[d]
		if extent <= 0 {
			continue
		}
		v := int(float64(g.cells) * (p[d] - g.bounds.Lo[d]) / extent)
		if v >= g.cells {
			v = g.cells - 1
		}
		if v < 0 {
			v = 0
		}
		c[d] = v
	}
	return c
}

// key packs a cell coordinate into a map key (10 bits per dimension, the
// 1024-cell cap above keeps this exact).
func (g *grid) key(cell []int) uint64 {
	var k uint64
	for _, v := range cell {
		k = k<<10 | uint64(v)
	}
	return k
}

// cellRect returns the spatial extent of a cell.
func (g *grid) cellRect(cell []int) geom.Rect {
	lo := make(geom.Point, g.dim)
	hi := make(geom.Point, g.dim)
	for d := 0; d < g.dim; d++ {
		extent := g.bounds.Hi[d] - g.bounds.Lo[d]
		lo[d] = g.bounds.Lo[d] + extent*float64(cell[d])/float64(g.cells)
		hi[d] = g.bounds.Lo[d] + extent*float64(cell[d]+1)/float64(g.cells)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// search runs the expanding ring search for one query point.
func (g *grid) search(pool *storage.BufferPool, buckets map[uint64]*bucket,
	id index.ObjectID, pt geom.Point, opts Options, stats *Stats) (core.Result, error) {

	effK := opts.K
	if opts.ExcludeSelf {
		effK++
	}
	best := pq.NewKBest[index.QueryResult](effK)
	home := g.cellOf(pt)

	for ring := 0; ring < g.cells; ring++ {
		// Every cell of this ring is at Chebyshev distance `ring` from
		// home; if even the nearest point of the nearest ring cell is
		// beyond the current k-th candidate, no later ring can help.
		ringVisited := false
		stop := best.Full()
		err := g.forEachRingCell(home, ring, func(cell []int) error {
			ringVisited = true
			rect := g.cellRect(cell)
			if best.Full() && geom.MinDistPointRectSq(pt, rect) >= best.Worst() {
				return nil
			}
			stop = false
			b, ok := buckets[g.key(cell)]
			if !ok {
				return nil
			}
			stats.BucketReads++
			objs, err := b.load(pool)
			if err != nil {
				return err
			}
			for _, o := range objs {
				if opts.ExcludeSelf && o.id == id {
					continue
				}
				stats.DistCalcs++
				if d, ok := geom.DistSqWithin(pt, o.pt, best.Worst()); ok {
					best.Add(d, index.QueryResult{Object: o.id, Point: o.pt, DistSq: d})
				}
			}
			return nil
		})
		if err != nil {
			return core.Result{}, err
		}
		if ring > stats.MaxRing {
			stats.MaxRing = ring
		}
		if !ringVisited || (stop && best.Full() && ring > 0) {
			break
		}
	}

	items := best.Items()
	neighbors := make([]core.Neighbor, 0, opts.K)
	selfSeen := false
	for _, it := range items {
		if opts.ExcludeSelf && !selfSeen && it.Value.Object == id {
			selfSeen = true
			continue
		}
		if len(neighbors) == opts.K {
			break
		}
		neighbors = append(neighbors, core.Neighbor{
			ID:    uint64(it.Value.Object),
			Point: it.Value.Point,
			Dist:  math.Sqrt(it.Key),
		})
	}
	return core.Result{ID: uint64(id), Point: pt, Neighbors: neighbors}, nil
}

// forEachRingCell visits every in-bounds cell at Chebyshev distance ring
// from home.
func (g *grid) forEachRingCell(home []int, ring int, fn func([]int) error) error {
	cell := make([]int, g.dim)
	var rec func(d int, onBoundary bool) error
	rec = func(d int, onBoundary bool) error {
		if d == g.dim {
			if onBoundary || ring == 0 {
				return fn(cell)
			}
			return nil
		}
		for off := -ring; off <= ring; off++ {
			v := home[d] + off
			if v < 0 || v >= g.cells {
				continue
			}
			cell[d] = v
			if err := rec(d+1, onBoundary || off == -ring || off == ring); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, false)
}

// --- spilled buckets ----------------------------------------------------------

// bucket is a target cell's points spilled to one or more pages.
// Page layout: uint16 count, 2 bytes pad, then count x (uint64 id + dim
// float64 coordinates); pages of one bucket are chained implicitly by the
// pages slice.
type bucket struct {
	dim   int
	pages []storage.PageID
}

func bucketCapacity(dim int) int {
	return (storage.PageSize - 4) / (8 + 8*dim)
}

type obj struct {
	id index.ObjectID
	pt geom.Point
}

func spillBucket(pool *storage.BufferPool, s Dataset, idxs []int) (*bucket, error) {
	dim := len(s.Points[0])
	capacity := bucketCapacity(dim)
	b := &bucket{dim: dim}
	for start := 0; start < len(idxs); start += capacity {
		end := start + capacity
		if end > len(idxs) {
			end = len(idxs)
		}
		f, err := pool.NewPage()
		if err != nil {
			return nil, err
		}
		data := f.Data()
		binary.LittleEndian.PutUint16(data, uint16(end-start))
		off := 4
		for _, i := range idxs[start:end] {
			binary.LittleEndian.PutUint64(data[off:], uint64(s.IDs[i]))
			off += 8
			for d := 0; d < dim; d++ {
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(s.Points[i][d]))
				off += 8
			}
		}
		f.MarkDirty()
		pid := f.ID()
		f.Release()
		b.pages = append(b.pages, pid)
	}
	return b, nil
}

func (b *bucket) load(pool *storage.BufferPool) ([]obj, error) {
	var out []obj
	for _, pid := range b.pages {
		f, err := pool.Get(pid)
		if err != nil {
			return nil, err
		}
		data := f.Data()
		count := int(binary.LittleEndian.Uint16(data))
		off := 4
		for i := 0; i < count; i++ {
			o := obj{
				id: index.ObjectID(binary.LittleEndian.Uint64(data[off:])),
				pt: make(geom.Point, b.dim),
			}
			off += 8
			for d := 0; d < b.dim; d++ {
				o.pt[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
				off += 8
			}
			out = append(out, o)
		}
		f.Release()
	}
	return out, nil
}
