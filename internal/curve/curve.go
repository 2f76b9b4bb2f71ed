// Package curve implements the space-filling curves used to impose a
// locality-preserving linear order on multi-dimensional points: Z-order
// (Morton order, arbitrary dimensionality) and the Hilbert curve (2-D).
//
// The BNN baseline sorts the outer dataset along such a curve to form
// spatially coherent groups; GORDER's grid order is a related
// lexicographic cell order implemented in the gorder package.
package curve

import (
	"fmt"

	"allnn/internal/geom"
)

// ZEncoder quantises points within a bounding box onto a 2^bits-per-dim
// grid and interleaves the coordinate bits into a single uint64 Z-value.
type ZEncoder struct {
	bounds  geom.Rect
	scale   []float64 // per-dim multiplier mapping coordinate -> cell
	bits    uint      // bits per dimension
	maxCell uint64    // 2^bits - 1
}

// NewZEncoder builds an encoder for points inside bounds. The number of
// bits per dimension is chosen as large as fits in 64 total bits (capped
// at 21 per dimension so that the shifts stay in range).
func NewZEncoder(bounds geom.Rect) *ZEncoder {
	dim := bounds.Dim()
	if dim == 0 {
		panic("curve: zero-dimensional bounds")
	}
	bits := uint(64 / dim)
	if bits > 21 {
		bits = 21
	}
	if bits == 0 {
		panic(fmt.Sprintf("curve: dimensionality %d too large for a 64-bit Z-value", dim))
	}
	e := &ZEncoder{
		bounds:  bounds.Clone(),
		scale:   make([]float64, dim),
		bits:    bits,
		maxCell: (uint64(1) << bits) - 1,
	}
	for d := 0; d < dim; d++ {
		extent := bounds.Hi[d] - bounds.Lo[d]
		if extent > 0 {
			e.scale[d] = float64(e.maxCell+1) / extent
		}
	}
	return e
}

// BitsPerDim returns the grid resolution in bits per dimension.
func (e *ZEncoder) BitsPerDim() uint { return e.bits }

// Cell returns the grid cell of p in dimension d, clamped to the grid.
func (e *ZEncoder) Cell(p geom.Point, d int) uint64 {
	v := (p[d] - e.bounds.Lo[d]) * e.scale[d]
	if v <= 0 {
		return 0
	}
	c := uint64(v)
	if c > e.maxCell {
		c = e.maxCell
	}
	return c
}

// Value returns the Z-order value of p: the bit-interleaving of its grid
// cell coordinates, most significant bit first.
func (e *ZEncoder) Value(p geom.Point) uint64 {
	dim := len(e.scale)
	if len(p) != dim {
		panic(fmt.Sprintf("curve: point dimensionality %d, encoder %d", len(p), dim))
	}
	// NewZEncoder gives every dimension at least one of the 64 bits, so
	// dim <= 64.
	var cells [64]uint64
	for d := range dim {
		cells[d] = e.Cell(p, d)
	}
	var z uint64
	for b := int(e.bits) - 1; b >= 0; b-- {
		for _, c := range cells[:dim] {
			z = z<<1 | c>>uint(b)&1
		}
	}
	return z
}

// SortZOrder sorts idx (a permutation of point indices) in place by the
// Z-order value of the corresponding points; points with equal values
// keep their order in idx. Sorting an index slice rather than the points
// keeps the caller's point identities stable.
func SortZOrder(pts []geom.Point, idx []int) {
	if len(pts) == 0 {
		return
	}
	sortByKey(NewZEncoder(geom.BoundingRect(pts)), pts, idx)
}

// sortByKey sorts idx by enc's value of the points it names, stably.
func sortByKey(enc Encoder, pts []geom.Point, idx []int) {
	order := make([]keyed, len(idx))
	for j, i := range idx {
		order[j] = keyed{key: enc.Value(pts[i]), i: i}
	}
	radixSort(order)
	for j, o := range order {
		idx[j] = o.i
	}
}

// HilbertValue returns the index of cell (x, y) along a 2-D Hilbert curve
// of the given order (grid side 2^order, order <= 32). x and y must be
// < 2^order.
//
// The curve is walked from the most significant quadrant down. Each level
// reads one bit of x and one of y in the frame its ancestors left, emits
// the quadrant's position (two bits) and passes a frame on. A frame is
// one of the four transforms that transposing and complementing the cell
// generate (hilbertStep), so hilbertLUT can take four levels at once,
// indexed by frame and the levels' four bits of x and y; the levels left
// over go one at a time.
func HilbertValue(order uint, x, y uint64) uint64 {
	var d uint64
	var frame uint16
	l := order
	for ; l >= 4; l -= 4 {
		e := hilbertLUT[frame<<8|uint16(x>>(l-4)&0xf)<<4|uint16(y>>(l-4)&0xf)]
		d = d<<8 | uint64(e&0xff)
		frame = e >> 8
	}
	for ; l > 0; l-- {
		w, next := hilbertStep(frame, x>>(l-1)&1, y>>(l-1)&1)
		d = d<<2 | w
		frame = next
	}
	return d
}

// hilbertStep is one level of the curve: in the frame given, whose bit 0
// transposes the cell and bit 1 complements both coordinates, it returns
// the position along the curve (0–3) of the quadrant with upper-half bits
// bx and by, and the frame of that quadrant. The lower-left quadrant
// transposes its frame, the lower-right one transposes and complements
// it, and the upper two keep it. Transposing and complementing commute,
// so composing frames is an exclusive or.
func hilbertStep(frame uint16, bx, by uint64) (uint64, uint16) {
	if frame&2 != 0 {
		bx, by = bx^1, by^1
	}
	if frame&1 != 0 {
		bx, by = by, bx
	}
	if by == 0 {
		frame ^= 1 | uint16(bx)<<1
	}
	return 3*bx ^ by, frame
}

// hilbertLUT holds four levels of hilbertStep for every frame f and
// four-bit pieces xs, ys at index f<<8 | xs<<4 | ys: the eight bits of
// curve position in the low byte, the frame after them in the high one.
var hilbertLUT = func() (lut [4 << 8]uint16) {
	for i := range lut {
		frame, xs, ys := uint16(i>>8), uint64(i>>4&0xf), uint64(i&0xf)
		var d uint64
		for l := 3; l >= 0; l-- {
			var w uint64
			w, frame = hilbertStep(frame, xs>>uint(l)&1, ys>>uint(l)&1)
			d = d<<2 | w
		}
		lut[i] = frame<<8 | uint16(d)
	}
	return lut
}()

// HilbertPoint is the inverse of HilbertValue: it maps a curve index d to
// the cell (x, y) on a Hilbert curve of the given order.
func HilbertPoint(order uint, d uint64) (x, y uint64) {
	t := d
	for s := uint64(1); s < uint64(1)<<order; s <<= 1 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// HilbertEncoder quantises 2-D points onto a Hilbert curve within a
// bounding box. It provides better locality than Z-order in two
// dimensions and is the grouping order used by the BNN baseline on 2-D
// workloads.
type HilbertEncoder struct {
	z     *ZEncoder
	order uint
}

// NewHilbertEncoder builds an encoder over 2-D bounds.
func NewHilbertEncoder(bounds geom.Rect) *HilbertEncoder {
	if bounds.Dim() != 2 {
		panic(fmt.Sprintf("curve: Hilbert encoder requires 2-D bounds, got %d-D", bounds.Dim()))
	}
	z := NewZEncoder(bounds)
	return &HilbertEncoder{z: z, order: z.BitsPerDim()}
}

// Value returns the Hilbert index of the grid cell containing p.
func (e *HilbertEncoder) Value(p geom.Point) uint64 {
	return HilbertValue(e.order, e.z.Cell(p, 0), e.z.Cell(p, 1))
}

// SortHilbert sorts idx in place by Hilbert order of 2-D points; points
// with equal values keep their order in idx.
func SortHilbert(pts []geom.Point, idx []int) {
	if len(pts) == 0 {
		return
	}
	sortByKey(NewHilbertEncoder(geom.BoundingRect(pts)), pts, idx)
}
