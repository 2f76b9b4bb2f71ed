package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/pq"
)

// KClosestPairsContext returns the k closest pairs (r, s), r from ir and s
// from is, ascending by distance — the k-closest-pair query of Corral et
// al. (SIGMOD 2000), the line of work the paper's MINMAXDIST discussion
// refers to. The traversal is best-first over subtree pairs ordered by
// MINMINDIST, with MAXMAXDIST-based upper bounds pruning pairs that
// cannot reach the top k.
//
// When excludeSelf is set, pairs with equal ObjectIDs are skipped, and
// for a self-join each unordered pair appears twice (once per direction),
// matching the two-dataset semantics of the operation.
//
// When ctx is cancelled or its deadline passes, the best-first traversal
// stops at the next frontier pop and returns ctx.Err() with no results (partial
// top-k output would be misleading — the pairs found so far need not be
// the globally closest). A context that can never be cancelled costs
// nothing — see RunContext.
func KClosestPairsContext(ctx context.Context, ir, is index.Tree, k int, excludeSelf bool) ([]Pair, Stats, error) {
	var stats Stats
	if ir.Dim() != is.Dim() {
		return nil, stats, fmt.Errorf("core: index dimensionality mismatch: %d vs %d", ir.Dim(), is.Dim())
	}
	if k < 1 {
		return nil, stats, fmt.Errorf("core: k must be at least 1, got %d", k)
	}
	cancelled, disarm, err := armCancel(ctx)
	if err != nil {
		return nil, stats, err
	}
	defer disarm()
	rootR, err := ir.Root()
	if err != nil {
		return nil, stats, err
	}
	rootS, err := is.Root()
	if err != nil {
		return nil, stats, err
	}
	if rootR.Count == 0 || rootS.Count == 0 {
		return nil, stats, nil
	}

	type nodePair struct {
		r, s *index.Entry
	}
	e := &engine{ir: ir, is: is, stats: &stats, ctx: ctx, cancelled: cancelled}

	// frontier: subtree pairs by ascending MINMINDIST. best: the k
	// closest object pairs so far (max-heap by distance).
	frontier := pq.NewHeap[nodePair](64)
	best := pq.NewKBest[Pair](k)
	push := func(r, s *index.Entry) {
		e.stats.DistanceCalcs++
		mind := geom.MinDistSq(r.MBR, s.MBR)
		if mind >= best.Worst() {
			e.stats.PrunedOnProbe++
			return
		}
		frontier.Push(mind, nodePair{r: r, s: s})
	}
	push(&rootR, &rootS)

	for frontier.Len() > 0 {
		if err := e.checkCancel(); err != nil {
			return nil, stats, err
		}
		item, _ := frontier.Pop()
		if item.Key >= best.Worst() {
			break // every remaining pair is at least this far apart
		}
		p := item.Value
		if p.r.IsObject() && p.s.IsObject() {
			if excludeSelf && p.r.Object == p.s.Object {
				continue
			}
			e.stats.DistanceCalcs++
			d := geom.DistSq(p.r.Point, p.s.Point)
			if d < best.Worst() {
				best.Add(d, Pair{R: uint64(p.r.Object), S: uint64(p.s.Object), Dist: math.Sqrt(d)})
			}
			continue
		}
		// Expand the side with the larger margin (objects cannot expand).
		expandR := !p.r.IsObject() && (p.s.IsObject() || p.r.MBR.Margin() >= p.s.MBR.Margin())
		if expandR {
			children, err := e.ir.Expand(p.r)
			if err != nil {
				return nil, stats, err
			}
			e.stats.NodesExpandedR++
			for i := range children {
				push(&children[i], p.s)
			}
		} else {
			children, err := e.is.Expand(p.s)
			if err != nil {
				return nil, stats, err
			}
			e.stats.NodesExpandedS++
			for i := range children {
				push(p.r, &children[i])
			}
		}
	}

	items := best.Items()
	out := make([]Pair, len(items))
	for i, it := range items {
		out[i] = it.Value
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	stats.Results = uint64(len(out))
	return out, stats, nil
}
