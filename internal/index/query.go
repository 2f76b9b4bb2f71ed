package index

import (
	"encoding/binary"
	"fmt"
	"math"
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
// the query. Each validated record arrives whole as a Block and is
// scanned by a kernel that reads coordinates straight from the page
// bytes; only the points a query returns are copied out, into a slab
// owned by the result, never aliasing a pool frame.

func f64at(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// childAt returns the child reference an internal slot starts with.
func childAt(slot []byte) storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(slot))
}

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
	if len(rect.Lo) != dim || len(rect.Hi) != dim {
		return nil, fmt.Errorf("index: range box has %d/%d dims, tree has %d", len(rect.Lo), len(rect.Hi), dim)
	}
	var out []QueryResult
	var slab []float64
	// Depth-first with an explicit stack of node references, so no page
	// stays pinned while a subtree is searched.
	stack := []storage.PageID{root.Child}
	scan := func(b Block) error {
		if !b.Leaf {
			for slot := b.Data; len(slot) >= b.Stride; slot = slot[b.Stride:] {
				if boxIntersects(rect, slot[b.BoxOff:]) {
					stack = append(stack, childAt(slot))
				}
			}
			return nil
		}
		for slot := b.Data; len(slot) >= b.Stride; slot = slot[b.Stride:] {
			if !boxContains(rect, slot[8:]) {
				continue
			}
			if len(slab)+dim > cap(slab) {
				slab = make([]float64, 0, max(2*cap(slab), 64*dim))
			}
			at := len(slab)
			for d := 0; d < dim; d++ {
				slab = append(slab, f64at(slot[8+8*d:]))
			}
			out = append(out, QueryResult{Object: ObjectID(binary.LittleEndian.Uint64(slot)), Point: slab[at:len(slab):len(slab)]})
		}
		return nil
	}
	for len(stack) > 0 {
		top := len(stack) - 1
		child := stack[top]
		stack = stack[:top]
		if err := t.Visit(child, scan); err != nil {
			return nil, err
		}
		// The node's children were pushed in slot order; the first must
		// be searched first.
		slices.Reverse(stack[top:])
	}
	return out, nil
}

// boxContains reports whether the point stored at pt (len(rect.Lo) × f64)
// lies inside rect, boundaries inclusive.
func boxContains(rect geom.Rect, pt []byte) bool {
	for d := range rect.Lo {
		if x := f64at(pt[8*d:]); x < rect.Lo[d] || x > rect.Hi[d] {
			return false
		}
	}
	return true
}

// boxIntersects reports whether the MBR stored at box (low corner, then
// high corner) shares a point with rect.
func boxIntersects(rect geom.Rect, box []byte) bool {
	dim := len(rect.Lo)
	for d := range rect.Lo {
		if rect.Lo[d] > f64at(box[8*(dim+d):]) || f64at(box[8*d:]) > rect.Hi[d] {
			return false
		}
	}
	return true
}

// knnCand is one k-best candidate: the object and the slot of the
// probe's coordinate slab holding its point.
type knnCand struct {
	object ObjectID
	slot   int
}

// knnQuery is the state of a best-first search, reused from probe to
// probe of a batch. The frontier holds (mindist², node reference) and
// the k-best (dist², object, slab slot); both are pooled, so a warm
// batch allocates only what it returns.
type knnQuery struct {
	q        geom.Point
	frontier pq.Heap[storage.PageID]
	best     pq.KBest[knnCand]
	items    []pq.Item[knnCand]
	// slab holds the coordinates of the current probe's admitted
	// candidates, one dim-wide slot each; a candidate that displaces the
	// k-th takes over its slot. It is the probe's share of an array
	// allocated per batch: the results keep it.
	slab []float64
	// visit is s.scan, bound once so that passing it to Tree.Visit does
	// not allocate a method value per query.
	visit func(Block) error
}

var knnPool = sync.Pool{New: func() any {
	s := new(knnQuery)
	s.visit = s.scan
	return s
}}

// scan offers one node record to the search. Both kernels keep the
// current k-th distance in a local and issue exactly the KBest.Add and
// Heap.Push calls a slot-by-slot `d < Worst()` loop would, in slot order.
func (s *knnQuery) scan(b Block) error {
	q, worst, dim := s.q, s.best.Worst(), b.Dim
	switch {
	case !b.Leaf:
		for slot := b.Data; len(slot) >= b.Stride; slot = slot[b.Stride:] {
			// MINDIST², abandoned like the leaf distance below. The gap
			// to [lo, hi] is taken without branching on which side q lies
			// (at most one of the differences is positive): in 10-D the
			// side is a coin toss per dimension and per slot.
			box := slot[b.BoxOff:]
			var sum float64
			for d := 0; d < dim && sum < worst; d++ {
				gap := max(f64at(box[8*d:])-q[d], q[d]-f64at(box[8*(dim+d):]), 0)
				sum += gap * gap
			}
			if sum < worst {
				s.frontier.Push(sum, childAt(slot))
			}
		}
	case dim == 2 && b.Stride == 24:
		qx, qy := q[0], q[1]
		for slot := b.Data; len(slot) >= 24; slot = slot[24:] {
			dx := qx - f64at(slot[8:])
			sum := dx * dx
			dy := qy - f64at(slot[16:])
			sum += dy * dy
			if sum < worst {
				worst = s.admit(sum, slot)
			}
		}
	default:
		for slot := b.Data; len(slot) >= b.Stride; slot = slot[b.Stride:] {
			// A point is abandoned as soon as its partial sum reaches the
			// k-th distance: admission is strict and a sum of squares
			// never decreases, so the full sum would be refused too (a
			// NaN sum fails both comparisons, as it fails d < Worst()).
			var sum float64
			for d := 0; d < dim && sum < worst; d++ {
				diff := q[d] - f64at(slot[8+8*d:])
				sum += diff * diff
			}
			if sum < worst {
				worst = s.admit(sum, slot)
			}
		}
	}
	return nil
}

// admit adds the leaf slot at squared distance d to the k-best, copies
// its point into the slab and returns the new k-th distance.
func (s *knnQuery) admit(d float64, slot []byte) float64 {
	at := s.best.Len()
	if s.best.Full() {
		at = s.best.WorstValue().slot
	}
	dim := len(s.q)
	for i, pt := 0, s.slab[at*dim:(at+1)*dim]; i < dim; i++ {
		pt[i] = f64at(slot[8+8*i:])
	}
	s.best.Add(d, knnCand{object: ObjectID(binary.LittleEndian.Uint64(slot)), slot: at})
	return s.best.Worst()
}

// NearestNeighbors returns the k nearest points of t to q in ascending
// distance order, using the classic best-first traversal: a batch of one.
func NearestNeighbors(t Tree, q geom.Point, k int) ([]QueryResult, error) {
	var out [1][]QueryResult
	err := nearest(t, [][]float64{q}, k, nil, out[:])
	return out[0], err
}

// BatchNearestNeighbors answers NearestNeighbors(t, q, k) for every q of
// qs, in order, as one query: one root read, one pooled search state, one
// coordinate slab and one result array for the whole batch (the points
// are plain coordinate slices, as the public API and the wire hold them).
// between, if not nil, runs before every probe but the first; its error
// ends the batch and is returned with no results.
func BatchNearestNeighbors(t Tree, qs [][]float64, k int, between func() error) ([][]QueryResult, error) {
	out := make([][]QueryResult, len(qs))
	if err := nearest(t, qs, k, between, out); err != nil {
		return nil, err
	}
	return out, nil
}

// nearest is the kNN loop under both entry points; it fills out[i] with
// the answer to qs[i].
func nearest(t Tree, qs [][]float64, k int, between func() error, out [][]QueryResult) error {
	if k < 1 || len(qs) == 0 {
		return nil
	}
	root, err := t.Root()
	if err != nil {
		return err
	}
	if root.Count == 0 {
		return nil
	}
	// A probe returns at most kMax points: the batch's coordinate slab and
	// result array are allocated once, kMax slots per probe.
	dim, kMax := t.Dim(), min(k, int(root.Count))
	slab := make([]float64, len(qs)*kMax*dim)
	flat := make([]QueryResult, 0, len(qs)*kMax)
	s := knnPool.Get().(*knnQuery)
	defer func() {
		s.q, s.slab = nil, nil
		knnPool.Put(s)
	}()
	for i, q := range qs {
		if len(q) != dim {
			return fmt.Errorf("index: query point %d has %d dims, tree has %d", i, len(q), dim)
		}
		if i > 0 && between != nil {
			if err := between(); err != nil {
				return err
			}
		}
		s.q, s.slab = q, slab[i*kMax*dim:(i+1)*kMax*dim]
		s.best.ResetK(k)
		s.frontier.Clear()
		s.frontier.Push(geom.MinDistPointRectSq(q, root.MBR), root.Child)
		for s.frontier.Len() > 0 {
			item, _ := s.frontier.Pop()
			if item.Key >= s.best.Worst() {
				break // every remaining node is at least this far away
			}
			if err := t.Visit(item.Value, s.visit); err != nil {
				return err
			}
		}
		s.items = s.best.AppendItems(s.items[:0])
		base := len(flat)
		for _, it := range s.items {
			at := it.Value.slot * dim
			flat = append(flat, QueryResult{Object: it.Value.object, Point: s.slab[at : at+dim : at+dim], DistSq: it.Key})
		}
		out[i] = flat[base:len(flat):len(flat)]
	}
	return nil
}
