package core

import (
	"context"
	"fmt"
	"math"

	"allnn/internal/geom"
	"allnn/internal/index"
)

// Pair is one result of a distance join or of KClosestPairsContext: the ids of
// two objects, one from each index, and their Euclidean distance. Like
// Neighbor it is the row type all the way out (ann.Pair and wire.Pair
// are aliases of it).
type Pair struct {
	R, S uint64
	Dist float64
}

// DistanceJoinContext reports every pair (r, s), r from ir and s from is,
// with Euclidean distance at most d (the Distance Join of Hjaltason & Samet,
// Section 2 of the paper — the operation ANN methods are most closely
// related to). It uses the same synchronized bi-directional traversal as
// the ANN engine, pruning subtree pairs whose MINMINDIST exceeds d.
//
// When excludeSelf is set, pairs with equal ObjectIDs are skipped (use
// for self-joins).
//
// When ctx is cancelled or its deadline passes, the traversal stops at the
// next node expansion and returns ctx.Err() alongside the stats gathered so far
// (emit is not called again after the cancellation is observed). A
// context that can never be cancelled costs nothing — see RunContext.
func DistanceJoinContext(ctx context.Context, ir, is index.Tree, d float64, excludeSelf bool, emit func(Pair) error) (Stats, error) {
	var stats Stats
	if ir.Dim() != is.Dim() {
		return stats, fmt.Errorf("core: index dimensionality mismatch: %d vs %d", ir.Dim(), is.Dim())
	}
	if d < 0 {
		return stats, fmt.Errorf("core: negative join distance %g", d)
	}
	cancelled, disarm, err := armCancel(ctx)
	if err != nil {
		return stats, err
	}
	defer disarm()
	rootR, err := ir.Root()
	if err != nil {
		return stats, err
	}
	rootS, err := is.Root()
	if err != nil {
		return stats, err
	}
	if rootR.Count == 0 || rootS.Count == 0 {
		return stats, nil
	}
	e := &engine{ir: ir, is: is, stats: &stats, ctx: ctx, cancelled: cancelled}
	return stats, e.joinPair(&rootR, &rootS, d*d, excludeSelf, emit)
}

// joinPair recursively expands the pair of subtrees, descending into the
// larger side first (classic distance-join heuristic: it shrinks the
// bounding boxes fastest).
func (e *engine) joinPair(r, s *index.Entry, distSq float64, excludeSelf bool, emit func(Pair) error) error {
	e.stats.DistanceCalcs++
	if geom.MinDistSq(r.MBR, s.MBR) > distSq {
		e.stats.PrunedOnProbe++
		return nil
	}
	if r.IsObject() && s.IsObject() {
		if excludeSelf && r.Object == s.Object {
			return nil
		}
		d := geom.DistSq(r.Point, s.Point)
		if d > distSq {
			return nil
		}
		e.stats.Results++
		return emit(Pair{R: uint64(r.Object), S: uint64(s.Object), Dist: math.Sqrt(d)})
	}
	// Expand the non-object side with the larger MBR margin. Each
	// expansion polls the cancellation flag, so an abort surfaces within
	// one node's worth of work.
	if err := e.checkCancel(); err != nil {
		return err
	}
	expandR := !r.IsObject() && (s.IsObject() || r.MBR.Margin() >= s.MBR.Margin())
	if expandR {
		children, err := e.ir.Expand(r)
		if err != nil {
			return err
		}
		e.stats.NodesExpandedR++
		for i := range children {
			if err := e.joinPair(&children[i], s, distSq, excludeSelf, emit); err != nil {
				return err
			}
		}
		return nil
	}
	children, err := e.is.Expand(s)
	if err != nil {
		return err
	}
	e.stats.NodesExpandedS++
	for i := range children {
		if err := e.joinPair(r, &children[i], distSq, excludeSelf, emit); err != nil {
			return err
		}
	}
	return nil
}
