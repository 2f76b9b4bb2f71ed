// Package bnn implements the two index-based competitors of Zhang et al.
// (SSDBM 2004) that the paper compares against:
//
//   - MNN (multiple nearest-neighbor search): an index-nested-loops join —
//     one best-first kNN search against the target index per query point,
//     with the query points visited in space-filling-curve order to
//     maximise buffer locality.
//   - BNN (batched nearest-neighbor search): query points are grouped
//     into spatially coherent batches (curve order again) and the target
//     index is traversed once per batch, amortising node accesses and
//     distance computations over the whole group.
//
// Both take the pruning metric as a parameter, which is how the paper
// produces its "BNN MAXMAXDIST" vs "BNN NXNDIST" bars: the original BNN
// uses MAXMAXDIST; switching the metric is the paper's drop-in
// improvement.
package bnn

import (
	"fmt"
	"math"

	"allnn/internal/core"
	"allnn/internal/curve"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/obs"
	"allnn/internal/pq"
)

// Options configures an MNN/BNN execution.
type Options struct {
	// K is the number of neighbors per query point (0 means 1).
	K int
	// Metric is the pruning upper bound (default NXNDist; the original
	// BNN corresponds to MaxMaxDist).
	Metric core.Metric
	// GroupSize is the number of query points per BNN batch (0 means 256).
	GroupSize int
	// ExcludeSelf skips neighbors with the query point's own ObjectID.
	ExcludeSelf bool
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 256
	}
	return o
}

// Stats counts the work performed.
type Stats struct {
	DistanceCalcs uint64 // point/MBR distance evaluations
	NodesVisited  uint64 // target index nodes expanded
	Groups        uint64 // batches processed (BNN) or points (MNN)
}

// AddTo accumulates the counters into a metrics registry under the "bnn"
// family (see DESIGN.md §10). MNN runs share the family: an MNN point is
// a batch of one.
func (s Stats) AddTo(r *obs.Registry) {
	r.Counter("bnn.distance_calcs").Add(s.DistanceCalcs)
	r.Counter("bnn.nodes_visited").Add(s.NodesVisited)
	r.Counter("bnn.groups").Add(s.Groups)
}

// Dataset is the in-memory query-side input.
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

// curveOrder returns the query point indices in space-filling-curve order
// (Hilbert in 2-D, Z-order otherwise).
func curveOrder(pts []geom.Point) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	if len(pts) == 0 {
		return idx
	}
	if len(pts[0]) == 2 {
		curve.SortHilbert(pts, idx)
	} else {
		curve.SortZOrder(pts, idx)
	}
	return idx
}

// MNN runs the index-nested-loops baseline: one kNN search per query
// point, in curve order. emit is called once per query point.
func MNN(r Dataset, is index.Tree, opts Options, emit func(core.Result) error) (Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	if err := validate(r, is); err != nil {
		return stats, err
	}
	effK := opts.K
	if opts.ExcludeSelf {
		effK++
	}
	for _, i := range curveOrder(r.Points) {
		stats.Groups++
		res, err := index.NearestNeighbors(is, r.Points[i], effK)
		if err != nil {
			return stats, err
		}
		if err := emit(assembleResult(r.IDs[i], r.Points[i], res, opts)); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// assembleResult converts raw kNN output into a core.Result, applying the
// exclude-self rule.
func assembleResult(id index.ObjectID, pt geom.Point, res []index.QueryResult, opts Options) core.Result {
	neighbors := make([]core.Neighbor, 0, opts.K)
	selfSeen := false
	for _, n := range res {
		if opts.ExcludeSelf && !selfSeen && n.Object == id {
			selfSeen = true
			continue
		}
		if len(neighbors) == opts.K {
			break
		}
		neighbors = append(neighbors, core.Neighbor{
			ID:    uint64(n.Object),
			Point: n.Point,
			Dist:  math.Sqrt(n.DistSq),
		})
	}
	return core.Result{ID: uint64(id), Point: pt, Neighbors: neighbors}
}

// BNN runs the batched baseline: query points are grouped in curve order
// and the target index is traversed once per group.
func BNN(r Dataset, is index.Tree, opts Options, emit func(core.Result) error) (Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	if err := validate(r, is); err != nil {
		return stats, err
	}
	order := curveOrder(r.Points)
	for start := 0; start < len(order); start += opts.GroupSize {
		end := start + opts.GroupSize
		if end > len(order) {
			end = len(order)
		}
		if err := bnnGroup(r, order[start:end], is, opts, &stats, emit); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// bnnGroup answers the kNN queries of one batch with a single best-first
// traversal of the target index.
func bnnGroup(r Dataset, group []int, is index.Tree, opts Options, stats *Stats, emit func(core.Result) error) error {
	stats.Groups++
	effK := opts.K
	if opts.ExcludeSelf {
		effK++
	}
	mbr := geom.EmptyRect(len(r.Points[group[0]]))
	for _, i := range group {
		mbr.ExpandPoint(r.Points[i])
	}

	best := make([]*pq.KBest[index.QueryResult], len(group))
	for g := range best {
		best[g] = pq.NewKBest[index.QueryResult](effK)
	}
	// groupBound: every group member has its k-th NN within this squared
	// distance. It is folded from timeless single-entry guarantees, so it
	// only tightens over the traversal:
	//   - for k == 1, the pruning metric of any entry bounds the NN
	//     distance of every member;
	//   - for any k, an entry whose subtree holds at least k points bounds
	//     the k-th NN distance of every member by its MAXMAXDIST (all its
	//     points are within that distance of every member).
	groupBound := math.Inf(1)

	frontier := pq.NewHeap[index.Entry](64)
	root, err := is.Root()
	if err != nil {
		return err
	}
	push := func(e index.Entry) {
		stats.DistanceCalcs++
		mind := geom.MinDistSq(mbr, e.MBR)
		if mind > groupBound {
			return
		}
		if effK == 1 {
			var bound float64
			if e.IsObject() {
				bound = geom.MaxDistPointRectSq(e.Point, mbr)
			} else {
				bound = opts.Metric.BoundSq(mbr, e.MBR)
			}
			if bound < groupBound {
				groupBound = bound
			}
		} else if int(e.Count) >= effK {
			if bound := geom.MaxDistSq(mbr, e.MBR); bound < groupBound {
				groupBound = bound
			}
		}
		frontier.Push(mind, e)
	}
	push(root)

	for frontier.Len() > 0 {
		item, _ := frontier.Pop()
		// currentBound: the group can stop refining once every member has
		// k candidates closer than any remaining frontier entry.
		worst := 0.0
		for _, b := range best {
			if w := b.Worst(); w > worst {
				worst = w
			}
		}
		if w := math.Min(worst, groupBound); item.Key > w {
			break
		}
		entries, err := is.Expand(&item.Value)
		if err != nil {
			return err
		}
		stats.NodesVisited++
		for _, e := range entries {
			if e.IsObject() {
				// Join the object against every group member.
				for g, i := range group {
					stats.DistanceCalcs++
					d := geom.DistSq(r.Points[i], e.Point)
					if d < best[g].Worst() {
						best[g].Add(d, index.QueryResult{Object: e.Object, Point: e.Point, DistSq: d})
					}
				}
			} else {
				push(e)
			}
		}
	}

	for g, i := range group {
		items := best[g].Items()
		res := make([]index.QueryResult, len(items))
		for n, it := range items {
			res[n] = it.Value
		}
		if err := emit(assembleResult(r.IDs[i], r.Points[i], res, opts)); err != nil {
			return err
		}
	}
	return nil
}

func validate(r Dataset, is index.Tree) error {
	if len(r.IDs) != len(r.Points) {
		return fmt.Errorf("bnn: %d ids for %d points", len(r.IDs), len(r.Points))
	}
	if len(r.Points) > 0 && len(r.Points[0]) != is.Dim() {
		return fmt.Errorf("bnn: query dimensionality %d, index %d", len(r.Points[0]), is.Dim())
	}
	return nil
}
