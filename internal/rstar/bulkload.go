package rstar

import (
	"fmt"
	"math"
	"sort"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// BulkLoad builds an R*-tree from a point set with the Sort-Tile-Recursive
// (STR) algorithm: points are recursively sorted and tiled into runs of
// page-sized leaves, then the upper levels are built the same way over the
// node center points. IDs default to 0..len(pts)-1 unless ids is non-nil.
//
// STR produces better-packed nodes than one-at-a-time insertion, which is
// how production systems build an index over an existing dataset.
func BulkLoad(pool *storage.BufferPool, pts []geom.Point, ids []index.ObjectID, cfg Config) (*Tree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("rstar: BulkLoad of empty point set")
	}
	if ids != nil && len(ids) != len(pts) {
		return nil, fmt.Errorf("rstar: %d ids for %d points", len(ids), len(pts))
	}
	dim := len(pts[0])
	t, err := New(pool, dim, cfg)
	if err != nil {
		return nil, err
	}

	// Fill factor below 100% leaves headroom for later inserts.
	capacity := int(float64(t.cfg.MaxEntries) * 0.9)
	if capacity < 2 {
		capacity = 2
	}

	// Build the leaf level.
	leafEntries := make([]entry, len(pts))
	for i, p := range pts {
		oid := index.ObjectID(i)
		if ids != nil {
			oid = ids[i]
		}
		leafEntries[i] = entry{mbr: geom.NewRect(p, p), obj: oid, pt: p, count: 1}
	}
	level, err := t.strLevel(leafEntries, capacity, true)
	if err != nil {
		return nil, err
	}
	height := 1
	for len(level) > 1 {
		level, err = t.strLevel(level, capacity, false)
		if err != nil {
			return nil, err
		}
		height++
	}
	t.root = level[0].child
	t.height = height
	t.size = len(pts)
	t.bounds = geom.BoundingRect(pts)
	return t, t.writeMeta()
}

// strLevel tiles entries into nodes of at most capacity entries and
// returns the parent entries describing those nodes.
func (t *Tree) strLevel(entries []entry, capacity int, leaf bool) ([]entry, error) {
	nodes := strTile(entries, capacity, t.dim, 0)
	parents := make([]entry, 0, len(nodes))
	for _, group := range nodes {
		pid, err := t.allocPage()
		if err != nil {
			return nil, err
		}
		n := &node{leaf: leaf, entries: group}
		if err := t.writeNode(pid, n); err != nil {
			return nil, err
		}
		parents = append(parents, entry{mbr: n.mbr(t.dim), child: pid, count: n.countPoints()})
	}
	return parents, nil
}

// strTile recursively slices entries into groups of at most capacity,
// sorting by successive axes of the entry centers.
func strTile(entries []entry, capacity, dim, axis int) [][]entry {
	if len(entries) <= capacity {
		return [][]entry{entries}
	}
	sort.SliceStable(entries, func(a, b int) bool {
		ca := (entries[a].mbr.Lo[axis] + entries[a].mbr.Hi[axis]) / 2
		cb := (entries[b].mbr.Lo[axis] + entries[b].mbr.Hi[axis]) / 2
		return ca < cb
	})
	if axis == dim-1 {
		// Final axis: cut into runs of exactly capacity.
		var out [][]entry
		for start := 0; start < len(entries); start += capacity {
			end := start + capacity
			if end > len(entries) {
				end = len(entries)
			}
			out = append(out, entries[start:end:end])
		}
		return out
	}
	// Number of slabs along this axis: S = ceil((n/capacity)^(1/(dim-axis))).
	nodesNeeded := float64(len(entries)) / float64(capacity)
	slabs := int(math.Ceil(math.Pow(nodesNeeded, 1/float64(dim-axis))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := (len(entries) + slabs - 1) / slabs
	var out [][]entry
	for start := 0; start < len(entries); start += slabSize {
		end := start + slabSize
		if end > len(entries) {
			end = len(entries)
		}
		out = append(out, strTile(entries[start:end:end], capacity, dim, axis+1)...)
	}
	return out
}
