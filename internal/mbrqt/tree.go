package mbrqt

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// DefaultMaxDepth bounds the quadtree decomposition. Beyond this depth a
// bucket is allowed to overflow its record (duplicate or near-duplicate
// points would otherwise split forever).
const DefaultMaxDepth = 48

// Config tunes a tree. The zero value selects the defaults.
type Config struct {
	// BucketCapacity is the split threshold of a leaf. 0 means "as many
	// points as fit one page-sized record", the paper's disk-oriented
	// choice.
	BucketCapacity int
	// MaxDepth bounds the decomposition depth; 0 means DefaultMaxDepth.
	MaxDepth int
}

func (c Config) withDefaults(dim int) Config {
	if c.BucketCapacity <= 0 {
		c.BucketCapacity = entriesPerRecord(leafEntrySize(dim))
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	return c
}

// Tree is a disk-resident MBR-enhanced bucket PR quadtree. What it
// shares with the R*-tree — Expand over the node cache, snapshots, page
// reclaim and the ordered checkpoint — is the embedded index.Shell.
type Tree struct {
	*index.Shell
	pool *storage.BufferPool
	rs   *recordStore
	dim  int
	cfg  Config

	root   nodeRef   // invalidRef while empty
	space  geom.Rect // the fixed cell of the root
	bounds geom.Rect // exact MBR of the data
	size   int
	height int
}

const metaMagic = 0x4D515432 // "MQT2"

// New creates an empty tree over the given space (the root cell of the
// PR decomposition — every inserted point must fall inside it). The tree
// allocates its pages from pool's store.
func New(pool *storage.BufferPool, space geom.Rect, cfg Config) (*Tree, error) {
	dim := space.Dim()
	if dim < 1 || dim > MaxDim {
		return nil, fmt.Errorf("mbrqt: dimensionality %d out of range [1, %d]", dim, MaxDim)
	}
	if space.IsEmpty() {
		return nil, fmt.Errorf("mbrqt: empty space rect")
	}
	t := &Tree{
		pool:   pool,
		dim:    dim,
		cfg:    cfg.withDefaults(dim),
		root:   invalidRef,
		space:  space.Clone(),
		bounds: geom.EmptyRect(dim),
	}
	f, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	t.attach(f.ID())
	f.Release()
	return t, t.writeMeta()
}

// attach wraps the tree, anchored at its meta page, in its shell and
// hands the shell's page lifecycle to the record store.
func (t *Tree) attach(meta storage.PageID) {
	t.rs = newRecordStore(t.pool)
	t.Shell = index.NewShell(t.pool, meta, t, t.writeMeta, t.rs.pageDead)
	t.rs.life = t.Shell
}

// Open loads a previously persisted tree anchored at the given meta page.
func Open(pool *storage.BufferPool, meta storage.PageID) (*Tree, error) {
	t := &Tree{pool: pool}
	t.attach(meta)
	f, err := pool.Get(meta)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	data := f.Data()
	if binary.LittleEndian.Uint32(data) != metaMagic {
		return nil, fmt.Errorf("mbrqt: page %d is not an MBRQT header: %w", meta, storage.ErrCorruptPage)
	}
	t.dim = int(binary.LittleEndian.Uint32(data[4:]))
	if t.dim < 1 || t.dim > MaxDim {
		return nil, fmt.Errorf("mbrqt: header dim %d out of range: %w", t.dim, storage.ErrCorruptPage)
	}
	t.root = nodeRef(binary.LittleEndian.Uint32(data[8:]))
	t.size = int(binary.LittleEndian.Uint64(data[12:]))
	t.height = int(binary.LittleEndian.Uint32(data[20:]))
	t.cfg.BucketCapacity = int(binary.LittleEndian.Uint32(data[24:]))
	t.cfg.MaxDepth = int(binary.LittleEndian.Uint32(data[28:]))
	off := 32
	readRect := func() geom.Rect {
		r := geom.Rect{Lo: make(geom.Point, t.dim), Hi: make(geom.Point, t.dim)}
		for d := 0; d < t.dim; d++ {
			r.Lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		for d := 0; d < t.dim; d++ {
			r.Hi[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		return r
	}
	t.space = readRect()
	t.bounds = readRect()
	return t, nil
}

// writeMeta persists the tree header to its meta page.
func (t *Tree) writeMeta() error {
	f, err := t.pool.Get(t.MetaPage())
	if err != nil {
		return err
	}
	defer f.Release()
	data := f.Data()
	binary.LittleEndian.PutUint32(data, metaMagic)
	binary.LittleEndian.PutUint32(data[4:], uint32(t.dim))
	binary.LittleEndian.PutUint32(data[8:], uint32(t.root))
	binary.LittleEndian.PutUint64(data[12:], uint64(t.size))
	binary.LittleEndian.PutUint32(data[20:], uint32(t.height))
	binary.LittleEndian.PutUint32(data[24:], uint32(t.cfg.BucketCapacity))
	binary.LittleEndian.PutUint32(data[28:], uint32(t.cfg.MaxDepth))
	off := 32
	writeRect := func(r geom.Rect) {
		for d := 0; d < t.dim; d++ {
			binary.LittleEndian.PutUint64(data[off:], math.Float64bits(r.Lo[d]))
			off += 8
		}
		for d := 0; d < t.dim; d++ {
			binary.LittleEndian.PutUint64(data[off:], math.Float64bits(r.Hi[d]))
			off += 8
		}
	}
	writeRect(t.space)
	b := t.bounds
	if b.IsEmpty() {
		// Persist the empty rect as inverted infinities, which round-trip.
		b = geom.EmptyRect(t.dim)
	}
	writeRect(b)
	f.MarkDirty()
	return nil
}

// Dim implements index.Tree.
func (t *Tree) Dim() int { return t.dim }

// Len implements index.Tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (0 for an empty tree).
func (t *Tree) Height() int { return t.height }

// Bounds implements index.Tree.
func (t *Tree) Bounds() geom.Rect { return t.bounds.Clone() }

// Space returns the fixed root cell of the decomposition.
func (t *Tree) Space() geom.Rect { return t.space.Clone() }

// Root implements index.Tree. Entry.Child carries the node's record ref
// (an opaque handle from the engine's point of view).
func (t *Tree) Root() (index.Entry, error) {
	return index.RootEntry(t.dim, storage.PageID(t.root), t.size, t.bounds), nil
}

// Visit implements index.Tree: the node's records are walked in their
// pinned pages and each, once parsed, is handed over whole.
func (t *Tree) Visit(child storage.PageID, fn func(index.Block) error) error {
	return t.walkRecords(nodeRef(child), func(_ nodeRef, v recordView) error {
		return fn(v.block(t.dim))
	})
}

// quadOf returns the quadrant code of pt within cell: bit d is set when
// pt lies in the upper half of dimension d.
func quadOf(pt geom.Point, cell geom.Rect) uint32 {
	var q uint32
	for d := range pt {
		if pt[d] >= (cell.Lo[d]+cell.Hi[d])/2 {
			q |= 1 << uint(d)
		}
	}
	return q
}

// childCell returns the sub-cell of cell selected by quadrant code q.
func childCell(cell geom.Rect, q uint32) geom.Rect {
	dim := cell.Dim()
	sub := geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
	for d := 0; d < dim; d++ {
		mid := (cell.Lo[d] + cell.Hi[d]) / 2
		if q&(1<<uint(d)) != 0 {
			sub.Lo[d], sub.Hi[d] = mid, cell.Hi[d]
		} else {
			sub.Lo[d], sub.Hi[d] = cell.Lo[d], mid
		}
	}
	return sub
}

// Insert adds one point. The point must lie inside the tree's space.
func (t *Tree) Insert(id index.ObjectID, pt geom.Point) error {
	if len(pt) != t.dim {
		return fmt.Errorf("mbrqt: point dimensionality %d, tree %d", len(pt), t.dim)
	}
	if !t.space.Contains(pt) {
		return fmt.Errorf("mbrqt: point %v outside index space %v", pt, t.space)
	}
	if t.root == invalidRef {
		ref, err := t.writeNewNode(&node{leaf: true, objects: []object{{id: id, pt: pt.Clone()}}})
		if err != nil {
			return err
		}
		t.root = ref
		t.height = 1
		t.size = 1
		t.bounds = geom.NewRect(pt.Clone(), pt.Clone())
		return nil
	}
	newRoot, depth, err := t.insertAt(t.root, t.space, 1, id, pt)
	if err != nil {
		return err
	}
	t.root = newRoot
	t.size++
	if depth > t.height {
		t.height = depth
	}
	t.bounds.ExpandPoint(pt)
	return nil
}

// insertAt descends into the node at ref (whose cell is cell, at the
// given depth) and inserts the point, splitting overflowing leaves. It
// returns the node's possibly relocated ref and the depth of the leaf
// that received the point.
func (t *Tree) insertAt(ref nodeRef, cell geom.Rect, depth int, id index.ObjectID, pt geom.Point) (nodeRef, int, error) {
	n, err := t.readNode(ref)
	if err != nil {
		return invalidRef, 0, err
	}
	if n.leaf {
		n.objects = append(n.objects, object{id: id, pt: pt.Clone()})
		if len(n.objects) > t.cfg.BucketCapacity && depth < t.cfg.MaxDepth {
			split, splitDepth, err := t.splitLeaf(n, cell, depth)
			if err != nil {
				return invalidRef, 0, err
			}
			newRef, err := t.updateNode(ref, split)
			return newRef, splitDepth, err
		}
		newRef, err := t.updateNode(ref, n)
		return newRef, depth, err
	}

	q := quadOf(pt, cell)
	for i := range n.children {
		c := &n.children[i]
		if c.quad == q {
			childRef, leafDepth, err := t.insertAt(c.ref, childCell(cell, q), depth+1, id, pt)
			if err != nil {
				return invalidRef, 0, err
			}
			c.ref = childRef
			c.count++
			c.mbr.ExpandPoint(pt)
			newRef, err := t.updateNode(ref, n)
			return newRef, leafDepth, err
		}
	}
	// No child for this quadrant yet: create a fresh leaf.
	leafRef, err := t.writeNewNode(&node{leaf: true, objects: []object{{id: id, pt: pt.Clone()}}})
	if err != nil {
		return invalidRef, 0, err
	}
	n.children = append(n.children, childSlot{
		quad:  q,
		ref:   leafRef,
		count: 1,
		mbr:   geom.NewRect(pt.Clone(), pt.Clone()),
	})
	newRef, err := t.updateNode(ref, n)
	return newRef, depth + 1, err
}

// splitLeaf converts an overflowing leaf into an internal node whose
// children are fresh leaves, one per non-empty quadrant. Quadrants that
// still overflow are split recursively (all points may share a quadrant).
// The returned depth is that of the deepest leaf created.
func (t *Tree) splitLeaf(n *node, cell geom.Rect, depth int) (*node, int, error) {
	groups := make(map[uint32][]object)
	for _, o := range n.objects {
		q := quadOf(o.pt, cell)
		groups[q] = append(groups[q], o)
	}
	internal := &node{leaf: false}
	// Deterministic child order keeps the on-disk layout reproducible.
	quads := make([]uint32, 0, len(groups))
	for q := range groups {
		quads = append(quads, q)
	}
	sort.Slice(quads, func(i, j int) bool { return quads[i] < quads[j] })
	maxDepth := depth + 1
	for _, q := range quads {
		objs := groups[q]
		child := &node{leaf: true, objects: objs}
		sub := childCell(cell, q)
		if len(objs) > t.cfg.BucketCapacity && depth+1 < t.cfg.MaxDepth {
			var err error
			var d int
			child, d, err = t.splitLeaf(child, sub, depth+1)
			if err != nil {
				return nil, 0, err
			}
			if d > maxDepth {
				maxDepth = d
			}
		}
		ref, err := t.writeNewNode(child)
		if err != nil {
			return nil, 0, err
		}
		mbr := geom.EmptyRect(t.dim)
		for _, o := range objs {
			mbr.ExpandPoint(o.pt)
		}
		internal.children = append(internal.children, childSlot{
			quad:  q,
			ref:   ref,
			count: uint32(len(objs)),
			mbr:   mbr,
		})
	}
	return internal, maxDepth, nil
}

// BulkLoad builds a tree from a point set in one pass. The space defaults
// to the data MBR (inflated marginally so every point is strictly inside).
// IDs are 0..len(pts)-1 unless ids is non-nil. Nodes are written in
// post-order, which packs siblings into shared pages and gives the
// traversal its locality.
func BulkLoad(pool *storage.BufferPool, pts []geom.Point, ids []index.ObjectID, cfg Config) (*Tree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("mbrqt: BulkLoad of empty point set")
	}
	if ids != nil && len(ids) != len(pts) {
		return nil, fmt.Errorf("mbrqt: %d ids for %d points", len(ids), len(pts))
	}
	bounds := geom.BoundingRect(pts)
	space := inflate(bounds)
	t, err := New(pool, space, cfg)
	if err != nil {
		return nil, err
	}
	objs := make([]object, len(pts))
	for i, p := range pts {
		oid := index.ObjectID(i)
		if ids != nil {
			oid = ids[i]
		}
		objs[i] = object{id: oid, pt: p}
	}
	rootRef, height, err := t.buildSubtree(objs, space, 1)
	if err != nil {
		return nil, err
	}
	t.root = rootRef
	t.height = height
	t.size = len(pts)
	t.bounds = bounds
	return t, t.writeMeta()
}

// buildSubtree writes the subtree for objs (all within cell) and returns
// its ref and height.
func (t *Tree) buildSubtree(objs []object, cell geom.Rect, depth int) (nodeRef, int, error) {
	if len(objs) <= t.cfg.BucketCapacity || depth >= t.cfg.MaxDepth {
		ref, err := t.writeNewNode(&node{leaf: true, objects: objs})
		return ref, depth, err
	}
	groups := make(map[uint32][]object)
	for _, o := range objs {
		q := quadOf(o.pt, cell)
		groups[q] = append(groups[q], o)
	}
	quads := make([]uint32, 0, len(groups))
	for q := range groups {
		quads = append(quads, q)
	}
	sort.Slice(quads, func(i, j int) bool { return quads[i] < quads[j] })

	n := &node{leaf: false}
	maxDepth := depth
	for _, q := range quads {
		g := groups[q]
		childRef, h, err := t.buildSubtree(g, childCell(cell, q), depth+1)
		if err != nil {
			return invalidRef, 0, err
		}
		if h > maxDepth {
			maxDepth = h
		}
		mbr := geom.EmptyRect(t.dim)
		for _, o := range g {
			mbr.ExpandPoint(o.pt)
		}
		n.children = append(n.children, childSlot{quad: q, ref: childRef, count: uint32(len(g)), mbr: mbr})
	}
	ref, err := t.writeNewNode(n)
	return ref, maxDepth, err
}

// inflate grows a rect by a tiny relative margin so that boundary points
// are strictly inside the returned space.
func inflate(r geom.Rect) geom.Rect {
	out := r.Clone()
	for d := range out.Lo {
		extent := out.Hi[d] - out.Lo[d]
		pad := extent * 1e-9
		if pad == 0 {
			pad = 1e-9
			if abs := math.Abs(out.Lo[d]); abs > 1 {
				pad = abs * 1e-9
			}
		}
		out.Lo[d] -= pad
		out.Hi[d] += pad
	}
	return out
}
