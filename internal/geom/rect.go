package geom

import (
	"fmt"
	"math"
)

// Rect is a D-dimensional axis-aligned minimum bounding rectangle (MBR),
// represented as in the paper by a lower-bound vector Lo and an upper-bound
// vector Hi: Lo[d] <= Hi[d] for every dimension d.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle with the given bounds. It panics if the two
// vectors have different lengths or if any lower bound exceeds the
// corresponding upper bound.
func NewRect(lo, hi Point) Rect {
	if len(lo) != len(hi) {
		panic(dimMismatch(len(lo), len(hi)))
	}
	for d := range lo {
		if lo[d] > hi[d] {
			panic(fmt.Sprintf("geom: inverted rect bounds in dimension %d: [%g, %g]", d, lo[d], hi[d]))
		}
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle covering exactly the point p.
// The returned rectangle aliases p; callers that mutate bounds must Clone.
func PointRect(p Point) Rect { return Rect{Lo: p, Hi: p} }

// EmptyRect returns the canonical empty rectangle in D dimensions: bounds
// inverted at +/-Inf so that Expand* operations treat it as an identity.
func EmptyRect(dim int) Rect {
	lo := make(Point, dim)
	hi := make(Point, dim)
	for d := 0; d < dim; d++ {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	return Rect{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// IsEmpty reports whether the rectangle is empty (has inverted bounds in
// some dimension, as produced by EmptyRect).
func (r Rect) IsEmpty() bool {
	for d := range r.Lo {
		if r.Lo[d] > r.Hi[d] {
			return true
		}
	}
	return len(r.Lo) == 0
}

// Clone returns a deep copy of the rectangle. Both bounds share one
// allocation: Tree.Root clones the index bounds once per point query.
func (r Rect) Clone() Rect {
	n := len(r.Lo)
	buf := make(Point, n+len(r.Hi))
	copy(buf, r.Lo)
	copy(buf[n:], r.Hi)
	return Rect{Lo: buf[:n:n], Hi: buf[n:]}
}

// Equal reports whether r and s have identical bounds.
func (r Rect) Equal(s Rect) bool {
	return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi)
}

// Center returns the center point of the rectangle.
func (r Rect) Center() Point {
	c := make(Point, len(r.Lo))
	for d := range r.Lo {
		c[d] = (r.Lo[d] + r.Hi[d]) / 2
	}
	return c
}

// Contains reports whether the point p lies inside the rectangle
// (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	if len(p) != len(r.Lo) {
		panic(dimMismatch(len(p), len(r.Lo)))
	}
	for d := range p {
		if p[d] < r.Lo[d] || p[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r
// (boundaries inclusive). An empty s is contained in everything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	for d := range r.Lo {
		if s.Lo[d] < r.Lo[d] || s.Hi[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point
// (boundaries inclusive).
func (r Rect) Intersects(s Rect) bool {
	if len(r.Lo) != len(s.Lo) {
		panic(dimMismatch(len(r.Lo), len(s.Lo)))
	}
	for d := range r.Lo {
		if r.Lo[d] > s.Hi[d] || s.Lo[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// ExpandPoint grows r in place so that it covers p and returns r.
func (r *Rect) ExpandPoint(p Point) {
	for d := range p {
		if p[d] < r.Lo[d] {
			r.Lo[d] = p[d]
		}
		if p[d] > r.Hi[d] {
			r.Hi[d] = p[d]
		}
	}
}

// ExpandRect grows r in place so that it covers s.
func (r *Rect) ExpandRect(s Rect) {
	if s.IsEmpty() {
		return
	}
	for d := range s.Lo {
		if s.Lo[d] < r.Lo[d] {
			r.Lo[d] = s.Lo[d]
		}
		if s.Hi[d] > r.Hi[d] {
			r.Hi[d] = s.Hi[d]
		}
	}
}

// Union returns the smallest rectangle covering both r and s.
func (r Rect) Union(s Rect) Rect {
	u := r.Clone()
	u.ExpandRect(s)
	return u
}

// Area returns the D-dimensional volume of the rectangle
// (zero for degenerate rectangles, zero for empty ones).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	a := 1.0
	for d := range r.Lo {
		a *= r.Hi[d] - r.Lo[d]
	}
	return a
}

// Margin returns the sum of the edge lengths of the rectangle, the "margin"
// quantity minimised by the R*-tree split axis selection.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	var m float64
	for d := range r.Lo {
		m += r.Hi[d] - r.Lo[d]
	}
	return m
}

// OverlapArea returns the volume of the intersection of r and s, or zero if
// they do not intersect.
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for d := range r.Lo {
		lo := math.Max(r.Lo[d], s.Lo[d])
		hi := math.Min(r.Hi[d], s.Hi[d])
		if lo >= hi {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// BoundingRect returns the MBR of a point set. It panics on an empty set.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	r := EmptyRect(len(pts[0]))
	for _, p := range pts {
		r.ExpandPoint(p)
	}
	return r
}

// String renders the rectangle as "[lo -> hi]".
func (r Rect) String() string {
	return fmt.Sprintf("[%s -> %s]", r.Lo, r.Hi)
}
