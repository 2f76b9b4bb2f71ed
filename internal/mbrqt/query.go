package mbrqt

import (
	"allnn/internal/geom"
	"allnn/internal/index"
)

// Result is a point returned by a query. DistSq is the squared distance
// to the query point (kNN queries only).
type Result = index.QueryResult

// RangeSearch returns every indexed point inside rect (boundaries
// inclusive), in no particular order.
func (t *Tree) RangeSearch(rect geom.Rect) ([]Result, error) {
	return index.RangeSearch(t, rect)
}

// Contains reports whether the tree holds a point with exactly the given
// coordinates (any object id).
func (t *Tree) Contains(pt geom.Point) (bool, error) {
	res, err := t.RangeSearch(geom.PointRect(pt))
	return len(res) > 0, err
}

// NearestNeighbors returns the k nearest indexed points to q, ordered by
// ascending distance. Fewer than k are returned when the tree is smaller
// than k. This is the classic best-first (Hjaltason & Samet) search, used
// here by the MNN baseline and for standalone kNN queries.
func (t *Tree) NearestNeighbors(q geom.Point, k int) ([]Result, error) {
	return index.NearestNeighbors(t, q, k)
}
