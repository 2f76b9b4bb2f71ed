package index

import (
	"sync"

	"allnn/internal/geom"
)

// Slot is the scratch a Tree.Visit implementation decodes node slots
// into: one Entry plus the coordinate buffer its MBR and Point alias.
// Pooled, because the Entry is handed to a caller-supplied function and
// so cannot live on Visit's stack.
type Slot struct {
	Entry  Entry
	coords []float64
}

var slotPool = sync.Pool{New: func() any { return new(Slot) }}

// AcquireSlot returns scratch for visiting a node of dim-dimensional
// entries. Release it when the visit ends.
func AcquireSlot(dim int) *Slot {
	s := slotPool.Get().(*Slot)
	if cap(s.coords) < 2*dim {
		s.coords = make([]float64, 2*dim)
	}
	s.coords = s.coords[:2*dim]
	return s
}

// Release returns the scratch to the pool.
func (s *Slot) Release() { slotPool.Put(s) }

// Object shapes the scratch Entry as a data point and returns the
// coordinate slice to decode each slot's point into (then set Object).
func (s *Slot) Object() geom.Point {
	pt := geom.Point(s.coords[:len(s.coords)/2])
	s.Entry = Entry{Kind: ObjectEntry, MBR: geom.PointRect(pt), Count: 1, Point: pt}
	return pt
}

// Node shapes the scratch Entry as a child reference and returns the
// slices to decode each slot's MBR into (then set Child and Count).
func (s *Slot) Node() (lo, hi geom.Point) {
	dim := len(s.coords) / 2
	lo, hi = s.coords[:dim], s.coords[dim:]
	s.Entry = Entry{Kind: NodeEntry, MBR: geom.Rect{Lo: lo, Hi: hi}}
	return lo, hi
}
