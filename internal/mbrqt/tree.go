package mbrqt

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// Tree is a disk-resident MBR-enhanced bucket PR quadtree. Its pages
// follow the copy-on-write lifecycle of cow.go.
type Tree struct {
	pool *storage.BufferPool
	meta storage.PageID // the header page
	rs   *recordStore
	dim  int
	cfg  Config

	// cache, when attached, serves Expand from decoded entry slices keyed
	// by ref, so it must not be shared with a tree whose refs could
	// collide. The pointer is atomic so concurrent readers can race with
	// an idempotent re-attach; the cache itself is concurrency-safe.
	cache atomic.Pointer[index.NodeCache]

	// chain holds the published snapshots and their readers (cow.go).
	chain *chain

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
		rs:     newRecordStore(pool),
		chain:  new(chain),
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
	t.meta = f.ID()
	f.Release()
	return t, t.writeMeta()
}

// Open loads a previously persisted tree anchored at the given meta page.
func Open(pool *storage.BufferPool, meta storage.PageID) (*Tree, error) {
	t := &Tree{pool: pool, meta: meta, rs: newRecordStore(pool), chain: new(chain)}
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
	f, err := t.pool.Get(t.meta)
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

// Pool returns the buffer pool the tree performs its I/O through.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// MetaPage returns the page anchoring the tree inside its store.
func (t *Tree) MetaPage() storage.PageID { return t.meta }

// SetNodeCache implements index.NodeCacher.
func (t *Tree) SetNodeCache(c *index.NodeCache) { t.cache.Store(c) }

// NodeCacheRef implements index.NodeCacher.
func (t *Tree) NodeCacheRef() *index.NodeCache { return t.cache.Load() }

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

// Expand implements index.Tree. With a node cache attached a warm
// expansion is one lookup returning the shared immutable slice; a miss
// decodes the node and populates the cache.
func (t *Tree) Expand(e *index.Entry) ([]index.Entry, error) {
	cache := t.cache.Load()
	if !e.IsObject() {
		if out, ok := cache.Get(e.Child); ok {
			return out, nil
		}
	}
	out, err := index.Expand(e, t.Visit)
	if err != nil {
		return nil, err
	}
	index.CachePut(cache, e.Child, out)
	return out, nil
}

// Visit implements index.Tree: the node's records are walked in their
// pinned pages and each, once parsed, is handed over whole.
func (t *Tree) Visit(child storage.PageID, fn func(index.Block) error) error {
	return t.walkRecords(nodeRef(child), func(_ nodeRef, v recordView) error {
		return fn(v.block(t.dim))
	})
}

// RefPage returns the page of the record ref (an Entry.Child) names, the
// first of its node's chain. With PageBounds it lets the engine tell the
// buffer pool which pages a join has finished with.
func (t *Tree) RefPage(ref storage.PageID) storage.PageID { return nodeRef(ref).page() }

// PageBounds returns the MBR of the points of every leaf record and the
// child MBRs of every internal record on a page, read from its bytes. It
// reports false for bytes that are not a slotted page of valid node
// records (the meta page, a damaged page) or that hold no record.
func (t *Tree) PageBounds(data []byte) (geom.Rect, bool) {
	if len(data) < recHeaderLen {
		return geom.Rect{}, false
	}
	n := pageNumSlots(data)
	if n > maxSlots || recHeaderLen+n*slotEntryLen > len(data) {
		return geom.Rect{}, false
	}
	r := geom.EmptyRect(t.dim)
	lo, hi := make(geom.Point, t.dim), make(geom.Point, t.dim)
	for s := 0; s < n; s++ {
		if slotLength(data, s) == 0 {
			continue
		}
		rec, err := recordFromPage(data, s)
		if err != nil {
			return geom.Rect{}, false
		}
		v, err := parseRecord(rec, t.dim, true, false)
		if err != nil {
			return geom.Rect{}, false
		}
		b := v.block(t.dim)
		for i := 0; i < b.N; i++ {
			if b.Leaf {
				b.Object(i, lo)
				r.ExpandPoint(lo)
			} else {
				b.Child(i, lo, hi)
				r.ExpandPoint(lo)
				r.ExpandPoint(hi)
			}
		}
	}
	return r, !r.IsEmpty()
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

// childCell returns the sub-cell of cell selected by quadrant code q of a
// split with the given mask (see node.mask): the dimensions outside the
// mask keep the cell's extent.
func childCell(cell geom.Rect, q, mask uint32) geom.Rect {
	dim := cell.Dim()
	mask = halved(mask, dim)
	sub := cell.Clone()
	for d := 0; d < dim; d++ {
		if mask&(1<<uint(d)) == 0 {
			continue
		}
		mid := (cell.Lo[d] + cell.Hi[d]) / 2
		if q&(1<<uint(d)) != 0 {
			sub.Lo[d] = mid
		} else {
			sub.Hi[d] = mid
		}
	}
	return sub
}

// hilbert is a cell's frame on the d-dimensional Hilbert curve, after
// Hamilton ("Compact Hilbert Indices", Dalhousie CS-2006-07): the curve
// enters the cell at the corner whose quadrant code is entry and leaves
// it at the corner that differs from entry in dimension dir alone. Its
// 2^d children follow a Gray code rotated and reflected into that frame,
// so consecutive children differ in one quadrant bit, and each child's
// frame follows from its rank. The zero value is the root's frame; in
// 2-D it orders cells as curve.HilbertValue does.
type hilbert struct{ entry, dir uint32 }

// rank returns the position of quadrant q among the cell's children
// along the curve.
func (h hilbert) rank(q uint32, dim int) uint32 {
	return grayInverse(rotl(q^h.entry, uint32(dim)-h.dir-1, dim), dim)
}

// quad is rank's inverse: the quadrant code of the child at position w.
func (h hilbert) quad(w uint32, dim int) uint32 {
	return rotl(w^w>>1, h.dir+1, dim) ^ h.entry
}

// child returns the frame of the child at position w.
func (h hilbert) child(w uint32, dim int) hilbert {
	// The child's entry corner and exit dimension in the standard frame
	// (Hamilton's e(w) and d(w)); g counts trailing one bits.
	var e, d uint32
	if w > 0 {
		v := (w - 1) &^ 1
		e = v ^ v>>1
		g := w
		if w%2 == 0 {
			g = w - 1
		}
		d = uint32(bits.TrailingZeros32(^g))
	}
	return hilbert{entry: h.entry ^ rotl(e, h.dir+1, dim), dir: (h.dir + d + 1) % uint32(dim)}
}

// grayInverse inverts the dim-bit reflected binary Gray code g = w ^ w>>1.
func grayInverse(g uint32, dim int) uint32 {
	for s := 1; s < dim; s <<= 1 {
		g ^= g >> uint(s)
	}
	return g
}

// rotl rotates the low dim bits of x left by r places, 0 <= r <= dim
// (dir < dim keeps every caller in range without a division).
func rotl(x, r uint32, dim int) uint32 {
	return (x<<r | x>>(uint32(dim)-r)) & (1<<uint(dim) - 1)
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
		ref, err := t.writeNewNode(&node{leaf: true, objects: []object{{id: id, pt: pt.Clone()}}}, &t.rs.fillPages)
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

	q := quadOf(pt, cell) & halved(n.mask, t.dim)
	for i := range n.children {
		c := &n.children[i]
		if c.quad == q {
			childRef, leafDepth, err := t.insertAt(c.ref, childCell(cell, q, n.mask), depth+1, id, pt)
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
	leafRef, err := t.writeNewNode(&node{leaf: true, objects: []object{{id: id, pt: pt.Clone()}}}, &t.rs.fillPages)
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
// children are fresh leaves, split again while they overflow: the bulk
// load's split over the leaf's objects, planned on the caller's
// goroutine. The returned depth is that of the deepest leaf created.
// The new subtrees are written in the curve order of the root frame: any
// frame visits siblings one quadrant bit apart, and the split's few
// records need no alignment with the curve of the cells around them.
func (t *Tree) splitLeaf(n *node, cell geom.Rect, depth int) (*node, int, error) {
	l := t.newLoader(len(n.objects))
	for i, o := range n.objects {
		l.set(i, o.id, o.pt)
	}
	p := l.split(0, 0, len(n.objects), cell, hilbert{}, depth)
	split, err := l.node(&p)
	return split, p.height, err
}

// BulkLoad builds a tree from a point set in one pass. The space defaults
// to the data MBR (inflated marginally so every point is strictly inside).
// IDs are 0..len(pts)-1 unless ids is non-nil. Nodes are written in
// post-order, each node's subtrees in Hilbert order, leaf records on the
// shared fill list, where leaves next along the curve share pages, and
// internal records on a fill list of their own, so no page holds both
// kinds and the few internal pages stay resident in the pool. The tree
// is planned first, large batches of sibling subtrees on goroutines of
// their own (at most GOMAXPROCS at once), and then written on the
// caller's goroutine.
func BulkLoad(pool *storage.BufferPool, pts []geom.Point, ids []index.ObjectID, cfg Config) (*Tree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("mbrqt: BulkLoad of empty point set")
	}
	if ids != nil && len(ids) != len(pts) {
		return nil, fmt.Errorf("mbrqt: %d ids for %d points", len(ids), len(pts))
	}
	if uint64(len(pts)) > math.MaxUint32 {
		return nil, fmt.Errorf("mbrqt: BulkLoad of %d points; a key holds a 32-bit position", len(pts))
	}
	bounds := geom.BoundingRect(pts)
	space := inflate(bounds)
	t, err := New(pool, space, cfg)
	if err != nil {
		return nil, err
	}
	l := t.newLoader(len(pts))
	l.innerFill = &t.rs.innerPages
	l.planners = make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range pts {
		oid := index.ObjectID(i)
		if ids != nil {
			oid = ids[i]
		}
		l.set(i, oid, p)
	}
	p := l.plan(0, 0, len(pts), space, hilbert{}, 1)
	rootRef, err := l.write(&p)
	if err != nil {
		return nil, err
	}
	t.root = rootRef
	t.height = p.height
	t.size = len(pts)
	t.bounds = bounds
	t.rs.settle()
	return t, t.writeMeta()
}

// planSpawnMin is the fewest objects a batch of sibling subtrees must
// hold for its plan to be offered to a goroutine of its own: a 50 K-point
// shard's quadrants qualify, and a batch this size takes far longer to
// plan than a goroutine takes to start.
var planSpawnMin = 4096

// loader is one build's working set, allocated once: every object's
// coordinates, packed, and its id, each in two buffers; one key per
// object for the radix passes, and a second key buffer; one vector of cell
// midpoints; and the leaf being written. A node finds its objects at a
// run of positions in one buffer — siblings own disjoint runs — and
// leaves them, grouped by quadrant, at the same run of the other buffer
// for its children. A node's working set is its own run, contiguous and
// shrinking with depth, so per-node state stays linear in its points and
// the passes below the top levels stay in cache.
//
// A load has two phases. The plan (plan, split) groups every node's
// objects and records its mask, MBR and children; sibling subtrees touch
// disjoint runs, so a large batch of them is planned on a goroutine of
// its own, with a copy of the loader (fork) for its midpoints, while
// planners holds a free token. The write (write, node) then writes every node on
// one goroutine, in the order a serial load would, so the page file is
// the same however the plan was scheduled. A leaf's objects stay at its
// run until then: only its ancestors, planned before it, write there.
// innerFill is the fill list internal records go to: the store's own for
// BulkLoad, the shared one for an Insert's split, whose loader has no
// planners and so plans on the caller's goroutine alone.
type loader struct {
	t         *Tree
	dim       int
	xs        [2][]float64
	ids       [2][]index.ObjectID
	keys, tmp []uint64
	mid       geom.Point
	leaf      []object
	innerFill *[]storage.PageID
	planners  chan struct{}
}

// plan is one node of a load, planned and not yet written: a leaf, whose
// objects are at [lo, hi) of buffer b, or, when kids is non-nil, an
// internal node over the objects at [lo, hi), with its split mask and
// its children in the order the curve visits them. quad is the node's
// quadrant code in its parent, height the depth of its deepest leaf and
// mbr its objects' MBR.
type plan struct {
	b, lo, hi  int
	height     int
	mbr        geom.Rect
	mask, quad uint32
	kids       []plan
}

// newLoader sizes a loader for n objects, which set places in buffer 0.
func (t *Tree) newLoader(n int) *loader {
	l := &loader{t: t, dim: t.dim, keys: make([]uint64, n), tmp: make([]uint64, n), mid: make(geom.Point, t.dim), innerFill: &t.rs.fillPages}
	for b := range l.xs {
		l.xs[b] = make([]float64, n*t.dim)
		l.ids[b] = make([]index.ObjectID, n)
	}
	return l
}

func (l *loader) set(i int, id index.ObjectID, pt geom.Point) {
	copy(l.xs[0][i*l.dim:], pt)
	l.ids[0][i] = id
}

// point returns the coordinates at position i of buffer b.
func (l *loader) point(b, i int) geom.Point {
	return l.xs[b][i*l.dim : (i+1)*l.dim : (i+1)*l.dim]
}

// fork returns a loader sharing l's buffers with midpoints of its own,
// for a subtree planned on another goroutine.
func (l *loader) fork() *loader {
	f := *l
	f.mid = make(geom.Point, l.dim)
	return &f
}

// spawn takes a planner token if one is free and reports whether it did.
func (l *loader) spawn() bool {
	select {
	case l.planners <- struct{}{}:
		return true
	default:
		return false
	}
}

// plan plans the subtree for the objects at [lo, hi) of buffer b, all
// within cell, whose curve frame is h.
func (l *loader) plan(b, lo, hi int, cell geom.Rect, h hilbert, depth int) plan {
	if hi-lo <= l.t.cfg.BucketCapacity || depth >= l.t.cfg.MaxDepth {
		mbr := geom.EmptyRect(l.dim)
		for i := lo; i < hi; i++ {
			mbr.ExpandPoint(l.point(b, i))
		}
		return plan{b: b, lo: lo, hi: hi, height: depth, mbr: mbr}
	}
	return l.split(b, lo, hi, cell, h, depth)
}

// write writes the planned subtree p and returns its ref.
func (l *loader) write(p *plan) (nodeRef, error) {
	if p.kids == nil {
		l.leaf = l.leaf[:0]
		for i := p.lo; i < p.hi; i++ {
			l.leaf = append(l.leaf, object{id: l.ids[p.b][i], pt: l.point(p.b, i)})
		}
		return l.t.writeNewNode(&node{leaf: true, objects: l.leaf}, &l.t.rs.fillPages)
	}
	n, err := l.node(p)
	if err != nil {
		return invalidRef, err
	}
	return l.t.writeNewNode(n, l.innerFill)
}

// node writes the subtrees of the planned internal node p in curve order
// and returns the node over them, unwritten, with its children in
// ascending quadrant order. The curve order decides only which records
// share a page: the node's entries but their refs, and every traversal,
// are the same in any write order.
func (l *loader) node(p *plan) (*node, error) {
	n := &node{mask: p.mask, children: make([]childSlot, 0, len(p.kids))}
	for i := range p.kids {
		k := &p.kids[i]
		ref, err := l.write(k)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, childSlot{quad: k.quad, ref: ref, count: uint32(k.hi - k.lo), mbr: k.mbr})
	}
	slices.SortFunc(n.children, func(a, b childSlot) int { return cmp.Compare(a.quad, b.quad) })
	return n, nil
}

// split groups the objects at [lo, hi) of buffer b by quadrant of cell,
// over the dimensions splitMask picks, and plans one subtree per
// non-empty quadrant, in the order the Hilbert curve (frame h, ranking
// the masked codes) visits them. The grouping is a
// least-significant-digit radix pass over keys packing each object's
// curve rank above its position: one stable binary split per rank bit
// that varies among the objects, so the ranks end ascending and every
// quadrant keeps its objects in their incoming order — the records, and
// the page file, depend on the input order alone.
func (l *loader) split(b, lo, hi int, cell geom.Rect, h hilbert, depth int) plan {
	for d := range l.mid {
		l.mid[d] = (cell.Lo[d] + cell.Hi[d]) / 2
	}
	// One pass takes the objects' MBR and quadrant codes together.
	mbr := geom.EmptyRect(l.dim)
	for i := lo; i < hi; i++ {
		pt := l.point(b, i)
		mlo, mhi, mid := mbr.Lo[:len(pt)], mbr.Hi[:len(pt)], l.mid[:len(pt)]
		var q uint32
		for d, v := range pt {
			if v < mlo[d] {
				mlo[d] = v
			}
			if v > mhi[d] {
				mhi[d] = v
			}
			if v >= mid[d] {
				q |= 1 << uint(d)
			}
		}
		l.keys[i] = uint64(q)
	}
	mask := l.splitMask(hi-lo, mbr)
	in := halved(mask, l.dim)
	anySet, allSet := uint32(0), ^uint32(0)
	for i := lo; i < hi; i++ {
		w := h.rank(uint32(l.keys[i])&in, l.dim)
		anySet |= w
		allSet &= w
		l.keys[i] = uint64(w)<<32 | uint64(i)
	}
	src, dst := l.keys[lo:hi], l.tmp[lo:hi]
	for d := range l.dim {
		if (anySet&^allSet)>>uint(d)&1 == 0 {
			continue
		}
		// Zeros fill dst from the front, ones from the back; reversing
		// the ones restores their order.
		bit := uint64(1) << uint(32+d)
		z, o := 0, len(dst)
		for _, k := range src {
			if k&bit == 0 {
				dst[z] = k
				z++
			} else {
				o--
				dst[o] = k
			}
		}
		slices.Reverse(dst[z:])
		src, dst = dst, src
	}
	// Move the objects into the other buffer in key order.
	nb := 1 - b
	for j, k := range src {
		i := int(uint32(k))
		copy(l.point(nb, lo+j), l.point(b, i))
		l.ids[nb][lo+j] = l.ids[b][i]
	}

	// Every child's run is found before any is planned: a child's plan
	// rewrites the keys of its run.
	n := 1
	for j := 1; j < len(src); j++ {
		if src[j]>>32 != src[j-1]>>32 {
			n++
		}
	}
	p := plan{b: b, lo: lo, hi: hi, height: depth, mbr: mbr, mask: mask, kids: make([]plan, 0, n)}
	for s := 0; s < len(src); {
		w := uint32(src[s] >> 32)
		e := s + 1
		for e < len(src) && uint32(src[e]>>32) == w {
			e++
		}
		p.kids = append(p.kids, plan{lo: lo + s, hi: lo + e, quad: h.quad(w, l.dim)})
		s = e
	}
	// The children are planned in batches of consecutive siblings holding
	// planSpawnMin objects between them (the last batch may hold fewer),
	// each on a goroutine of its own while a token is free: a split into
	// many small quadrants, as in high D, spreads its work as well as one
	// into a few large ones.
	var wg sync.WaitGroup
	for j := 0; j < len(p.kids); {
		e, objs := j, 0
		for e < len(p.kids) && objs < planSpawnMin {
			objs += p.kids[e].hi - p.kids[e].lo
			e++
		}
		batch := p.kids[j:e]
		planBatch := func(l *loader) {
			for i := range batch {
				kid := &batch[i]
				q := kid.quad
				*kid = l.plan(nb, kid.lo, kid.hi, childCell(cell, q, mask), h.child(h.rank(q, l.dim), l.dim), depth+1)
				kid.quad = q
			}
		}
		if objs >= planSpawnMin && l.spawn() {
			wg.Add(1)
			go func(f *loader) {
				defer wg.Done()
				planBatch(f)
				<-l.planners
			}(l.fork())
		} else {
			planBatch(l)
		}
		j = e
	}
	wg.Wait()
	for j := range p.kids {
		p.height = max(p.height, p.kids[j].height)
	}
	return p
}

// splitMask returns the dimensions a split of n objects with MBR mbr
// halves (node.mask: 0 for every dimension). A dimension separates when
// the cell's midpoint (l.mid) has objects on both sides. Halving all D
// dimensions at once scatters a bucket over up to 2^D quadrants, most
// of them nearly empty in high D, so the split halves the m separating
// dimensions of widest spread, m = ⌈log₂(n / (capacity/2))⌉ — as many
// as take n objects down to half-full buckets — and with them every
// other separating dimension at least half as wide as the widest, so
// that the cells stay close to cubes. Ties go to the lower dimension.
// Every dimension that does not separate is halved too: it adds no
// child, and a cell that kept its extent there would keep a midpoint
// none of its objects straddle, at every depth below. A choice of every
// dimension, or no separating dimension at all, is the paper's split;
// in 2-D, where m ≥ 2 for any capacity above 1, that is every split.
func (l *loader) splitMask(n int, mbr geom.Rect) uint32 {
	m := 0
	for c := max(l.t.cfg.BucketCapacity/2, 1); c < n; c <<= 1 {
		m++
	}
	var buf [MaxDim]int
	sep := buf[:0]
	var mask uint32
	for d := range l.dim {
		if mbr.Lo[d] < l.mid[d] && l.mid[d] <= mbr.Hi[d] {
			sep = append(sep, d)
		} else {
			mask |= 1 << uint(d)
		}
	}
	spread := func(d int) float64 { return mbr.Hi[d] - mbr.Lo[d] }
	slices.SortStableFunc(sep, func(a, b int) int { return cmp.Compare(spread(b), spread(a)) })
	for i, d := range sep {
		if i >= m && 2*spread(d) < spread(sep[0]) {
			break
		}
		mask |= 1 << uint(d)
	}
	if mask == halved(0, l.dim) {
		return 0
	}
	return mask
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
