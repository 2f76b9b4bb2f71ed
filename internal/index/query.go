package index

import (
	"slices"
	"sync"

	"allnn/internal/geom"
	"allnn/internal/pq"
	"allnn/internal/storage"
)

// QueryResult is a point returned by the generic query helpers.
type QueryResult struct {
	Object ObjectID
	Point  geom.Point
	DistSq float64
}

// The point queries below read every node where it lies, through
// Tree.Visit: a probe touches a handful of nodes once each, so decoding
// them into entry slices (or caching the decode) would cost more than
// the query. Coordinates of the points they return are copied out of the
// page into a slab owned by the result, never aliasing a pool frame.

// RangeSearch returns every point of t inside rect (boundaries inclusive)
// by pruning subtrees whose MBR does not intersect rect.
func RangeSearch(t Tree, rect geom.Rect) ([]QueryResult, error) {
	root, err := t.Root()
	if err != nil {
		return nil, err
	}
	if root.Count == 0 {
		return nil, nil
	}
	dim := t.Dim()
	var out []QueryResult
	var slab []float64
	// Depth-first with an explicit stack of node references, so no page
	// stays pinned while a subtree is searched.
	stack := []storage.PageID{root.Child}
	visit := func(e *Entry) error {
		if e.IsObject() {
			if rect.Contains(e.Point) {
				if len(slab)+dim > cap(slab) {
					slab = make([]float64, 0, max(2*cap(slab), 64*dim))
				}
				slab = append(slab, e.Point...)
				out = append(out, QueryResult{Object: e.Object, Point: slab[len(slab)-dim : len(slab) : len(slab)]})
			}
		} else if rect.Intersects(e.MBR) {
			stack = append(stack, e.Child)
		}
		return nil
	}
	for len(stack) > 0 {
		top := len(stack) - 1
		child := stack[top]
		stack = stack[:top]
		if err := t.Visit(child, visit); err != nil {
			return nil, err
		}
		// The node's children were pushed in slot order; the first must
		// be searched first.
		slices.Reverse(stack[top:])
	}
	return out, nil
}

// knnCand is one k-best candidate: the object and the slot of the
// query's coordinate slab holding its point.
type knnCand struct {
	object ObjectID
	slot   int
}

// knnQuery is the state of one best-first search. The frontier holds
// (mindist², node reference) and the k-best (dist², object, slab slot);
// both are pooled, so a warm query allocates only what it returns.
type knnQuery struct {
	q        geom.Point
	frontier pq.Heap[storage.PageID]
	best     pq.KBest[knnCand]
	items    []pq.Item[knnCand]
	// slab holds the coordinates of the admitted candidates, one dim-wide
	// slot each; a candidate that displaces the k-th takes over its slot.
	// It is allocated per query: the results keep it.
	slab []float64
	// visit is q.slot, bound once so that passing it to Tree.Visit does
	// not allocate a method value per query.
	visit func(*Entry) error
}

var knnPool = sync.Pool{New: func() any {
	s := new(knnQuery)
	s.visit = s.slot
	return s
}}

// slot offers one node slot to the search.
func (s *knnQuery) slot(e *Entry) error {
	if e.IsObject() {
		d := geom.DistSq(s.q, e.Point)
		if d < s.best.Worst() {
			var at int
			if s.best.Full() {
				at = s.best.WorstValue().slot
				copy(s.slab[at*len(e.Point):], e.Point)
			} else {
				at = s.best.Len()
				s.slab = append(s.slab, e.Point...)
			}
			s.best.Add(d, knnCand{object: e.Object, slot: at})
		}
	} else {
		d := geom.MinDistPointRectSq(s.q, e.MBR)
		if d < s.best.Worst() {
			s.frontier.Push(d, e.Child)
		}
	}
	return nil
}

// NearestNeighbors returns the k nearest points of t to q in ascending
// distance order, using the classic best-first traversal.
func NearestNeighbors(t Tree, q geom.Point, k int) ([]QueryResult, error) {
	if k < 1 {
		return nil, nil
	}
	root, err := t.Root()
	if err != nil {
		return nil, err
	}
	if root.Count == 0 {
		return nil, nil
	}
	dim := t.Dim()
	s := knnPool.Get().(*knnQuery)
	defer func() {
		s.q, s.slab = nil, nil
		knnPool.Put(s)
	}()
	s.q = q
	s.slab = make([]float64, 0, min(k, int(root.Count))*dim)
	s.best.ResetK(k)
	s.frontier.Clear()
	s.frontier.Push(geom.MinDistPointRectSq(q, root.MBR), root.Child)
	for s.frontier.Len() > 0 {
		item, _ := s.frontier.Pop()
		if item.Key >= s.best.Worst() {
			break // every remaining node is at least this far away
		}
		if err := t.Visit(item.Value, s.visit); err != nil {
			return nil, err
		}
	}
	s.items = s.best.AppendItems(s.items[:0])
	out := make([]QueryResult, len(s.items))
	for i, it := range s.items {
		at := it.Value.slot * dim
		out[i] = QueryResult{Object: it.Value.object, Point: s.slab[at : at+dim : at+dim], DistSq: it.Key}
	}
	return out, nil
}
