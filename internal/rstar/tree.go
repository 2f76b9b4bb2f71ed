package rstar

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// Config tunes the tree. The zero value selects page-sized fanout. The
// rest is the canonical R* policy: 40 % minimum fill and 30 % forced
// reinsertion.
type Config struct {
	// MaxEntries caps the node fanout; 0 means "as many as fit one page".
	// Tests use small values to force deep trees.
	MaxEntries int
}

const (
	minFill          = 0.4 // the minimum fill fraction of a node
	reinsertFraction = 0.3 // the share of entries evicted on a level's first overflow
)

func (c Config) withDefaults(dim int) Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = maxEntriesFor(internalEntrySize(dim))
		if leafMax := maxEntriesFor(leafEntrySize(dim)); leafMax < c.MaxEntries {
			c.MaxEntries = leafMax
		}
	}
	if c.MaxEntries < 4 {
		c.MaxEntries = 4
	}
	return c
}

func (c Config) minEntries() int { return max(int(float64(c.MaxEntries)*minFill), 1) }

func (c Config) reinsertCount() int { return max(int(float64(c.MaxEntries)*reinsertFraction), 1) }

// Tree is a disk-resident R*-tree over points, built — by BulkLoad, or by
// New and Insert for the paper's Fig 3(a) — and then only read. R* nodes
// occupy whole pages, so a ref is a page id. Insert writes nodes in
// place.
type Tree struct {
	pool *storage.BufferPool
	meta storage.PageID // the header page
	dim  int
	cfg  Config

	root   storage.PageID
	height int // number of levels; 1 = root is a leaf; 0 = empty
	size   int
	bounds geom.Rect

	// reinserting tracks the levels where forced reinsertion already ran
	// during the current top-level Insert (R* applies it once per level).
	reinserting map[int]bool
	pending     []pendingEntry
}

type pendingEntry struct {
	e     entry
	level int
}

const metaMagic = 0x52535431 // "RST1"

// New creates an empty R*-tree for dim-dimensional points, allocating its
// pages from pool's store.
func New(pool *storage.BufferPool, dim int, cfg Config) (*Tree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("rstar: dimensionality %d out of range", dim)
	}
	t := &Tree{
		pool:   pool,
		dim:    dim,
		cfg:    cfg.withDefaults(dim),
		root:   storage.InvalidPage,
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

// Open loads a persisted tree anchored at the given meta page.
func Open(pool *storage.BufferPool, meta storage.PageID) (*Tree, error) {
	t := &Tree{pool: pool, meta: meta}
	f, err := pool.Get(meta)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	data := f.Data()
	if binary.LittleEndian.Uint32(data) != metaMagic {
		return nil, fmt.Errorf("rstar: page %d is not an R*-tree header: %w", meta, storage.ErrCorruptPage)
	}
	t.dim = int(binary.LittleEndian.Uint32(data[4:]))
	if t.dim < 1 || 28+16*t.dim > storage.PageSize {
		return nil, fmt.Errorf("rstar: header dim %d out of range: %w", t.dim, storage.ErrCorruptPage)
	}
	t.root = storage.PageID(binary.LittleEndian.Uint32(data[8:]))
	t.size = int(binary.LittleEndian.Uint64(data[12:]))
	t.height = int(binary.LittleEndian.Uint32(data[20:]))
	t.cfg.MaxEntries = int(binary.LittleEndian.Uint32(data[24:]))
	off := 28
	t.bounds = geom.Rect{Lo: make(geom.Point, t.dim), Hi: make(geom.Point, t.dim)}
	for d := 0; d < t.dim; d++ {
		t.bounds.Lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	for d := 0; d < t.dim; d++ {
		t.bounds.Hi[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return t, nil
}

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
	binary.LittleEndian.PutUint32(data[24:], uint32(t.cfg.MaxEntries))
	off := 28
	for d := 0; d < t.dim; d++ {
		binary.LittleEndian.PutUint64(data[off:], math.Float64bits(t.bounds.Lo[d]))
		off += 8
	}
	for d := 0; d < t.dim; d++ {
		binary.LittleEndian.PutUint64(data[off:], math.Float64bits(t.bounds.Hi[d]))
		off += 8
	}
	f.MarkDirty()
	return nil
}

// Pool returns the buffer pool the tree performs its I/O through.
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// MetaPage returns the page anchoring the tree inside its store.
func (t *Tree) MetaPage() storage.PageID { return t.meta }

// Flush makes the tree durable: the data pages are written and synced
// before the header, so a crash never leaves a durable header pointing
// at unwritten pages.
func (t *Tree) Flush() error {
	if err := t.writeMeta(); err != nil {
		return err
	}
	if err := t.pool.FlushAllExcept(t.meta); err != nil {
		return err
	}
	if err := t.pool.Store().Sync(); err != nil {
		return err
	}
	if err := t.pool.FlushPage(t.meta); err != nil {
		return err
	}
	return t.pool.Store().Sync()
}

// Dim implements index.Tree.
func (t *Tree) Dim() int { return t.dim }

// Len implements index.Tree.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (0 for an empty tree).
func (t *Tree) Height() int { return t.height }

// Bounds implements index.Tree.
func (t *Tree) Bounds() geom.Rect { return t.bounds.Clone() }

// Root implements index.Tree.
func (t *Tree) Root() (index.Entry, error) {
	return index.RootEntry(t.dim, t.root, t.size, t.bounds), nil
}

// Expand implements index.Tree, decoding the node on every call.
func (t *Tree) Expand(e *index.Entry) ([]index.Entry, error) { return index.Expand(e, t.Visit) }

// Visit implements index.Tree: the node is parsed in its pinned page and
// handed over whole.
func (t *Tree) Visit(child storage.PageID, fn func(index.Block) error) error {
	return t.viewNode(child, func(v nodeView) error { return fn(v.block(t.dim)) })
}

// Insert adds one point to the tree.
func (t *Tree) Insert(id index.ObjectID, pt geom.Point) error {
	if len(pt) != t.dim {
		return fmt.Errorf("rstar: point dimensionality %d, tree %d", len(pt), t.dim)
	}
	pt = pt.Clone()
	e := entry{mbr: geom.NewRect(pt, pt), obj: id, pt: pt, count: 1}
	t.reinserting = make(map[int]bool)
	if err := t.insertEntry(e, 0); err != nil {
		return err
	}
	// Drain forced reinsertions queued during the descent. Reinserting
	// can enqueue more (overflows at other levels); the per-level guard
	// bounds the process.
	for len(t.pending) > 0 {
		p := t.pending[0]
		t.pending = t.pending[1:]
		if err := t.insertEntry(p.e, p.level); err != nil {
			return err
		}
	}
	t.size++
	if t.bounds.IsEmpty() {
		t.bounds = geom.NewRect(pt.Clone(), pt.Clone())
	} else {
		t.bounds.ExpandPoint(pt)
	}
	return nil
}

// insertEntry places e at the given level (0 = leaf level), growing the
// root on split.
func (t *Tree) insertEntry(e entry, level int) error {
	if t.root == storage.InvalidPage {
		if level != 0 {
			return fmt.Errorf("rstar: internal entry insert into empty tree")
		}
		pid, err := t.allocPage()
		if err != nil {
			return err
		}
		if err := t.writeNode(pid, &node{leaf: true, entries: []entry{e}}); err != nil {
			return err
		}
		t.root = pid
		t.height = 1
		return nil
	}
	res, err := t.insertRec(t.root, t.height-1, e, level)
	if err != nil {
		return err
	}
	if res.split != nil {
		// Grow a new root over the old root and its split sibling.
		oldRootEntry := entry{mbr: res.mbr, child: t.root, count: res.count}
		newRoot, err := t.allocPage()
		if err != nil {
			return err
		}
		if err := t.writeNode(newRoot, &node{leaf: false, entries: []entry{oldRootEntry, *res.split}}); err != nil {
			return err
		}
		t.root = newRoot
		t.height++
	}
	return nil
}

// insertResult carries the updated geometry of a child back to its
// parent.
type insertResult struct {
	mbr   geom.Rect
	count uint32
	split *entry // sibling created by a node split, to be added to the parent
}

func (t *Tree) insertRec(pid storage.PageID, nodeLevel int, e entry, targetLevel int) (insertResult, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return insertResult{}, err
	}
	if nodeLevel == targetLevel {
		n.entries = append(n.entries, e)
		if len(n.entries) > t.cfg.MaxEntries {
			return t.handleOverflow(pid, n, nodeLevel)
		}
		return t.rewrite(pid, n)
	}

	i := t.chooseSubtree(n, e.mbr, nodeLevel-1 == targetLevel)
	child := &n.entries[i]
	res, err := t.insertRec(child.child, nodeLevel-1, e, targetLevel)
	if err != nil {
		return insertResult{}, err
	}
	child.mbr = res.mbr
	child.count = res.count
	if res.split != nil {
		n.entries = append(n.entries, *res.split)
		if len(n.entries) > t.cfg.MaxEntries {
			return t.handleOverflow(pid, n, nodeLevel)
		}
	}
	return t.rewrite(pid, n)
}

// rewrite stores n back at pid and describes it to the parent.
func (t *Tree) rewrite(pid storage.PageID, n *node) (insertResult, error) {
	if err := t.writeNode(pid, n); err != nil {
		return insertResult{}, err
	}
	return insertResult{mbr: n.mbr(t.dim), count: n.countPoints()}, nil
}

// chooseSubtree implements the R* descent heuristic: at the level just
// above the target, pick the entry needing the least overlap enlargement
// (ties: least area enlargement, then least area); higher up, pick the
// least area enlargement (ties: least area).
func (t *Tree) chooseSubtree(n *node, mbr geom.Rect, aboveTarget bool) int {
	best := 0
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	for i := range n.entries {
		en := &n.entries[i]
		union := en.mbr.Union(mbr)
		enlarge := union.Area() - en.mbr.Area()
		area := en.mbr.Area()
		overlap := 0.0
		if aboveTarget {
			// Overlap enlargement of entry i against its siblings.
			for j := range n.entries {
				if j == i {
					continue
				}
				overlap += union.OverlapArea(n.entries[j].mbr) - en.mbr.OverlapArea(n.entries[j].mbr)
			}
		}
		better := false
		switch {
		case aboveTarget && overlap != bestOverlap:
			better = overlap < bestOverlap
		case enlarge != bestEnlarge:
			better = enlarge < bestEnlarge
		default:
			better = area < bestArea
		}
		if i == 0 || better {
			best = i
			bestOverlap = overlap
			bestEnlarge = enlarge
			bestArea = area
		}
	}
	return best
}

// handleOverflow applies the R* policy to an overflowing node: forced
// reinsertion on the first overflow at this level (unless at the root),
// a split otherwise.
func (t *Tree) handleOverflow(pid storage.PageID, n *node, level int) (insertResult, error) {
	isRoot := pid == t.root
	if !isRoot && !t.reinserting[level] {
		t.reinserting[level] = true
		kept, evicted := t.pickReinsertions(n)
		n.entries = kept
		for _, ev := range evicted {
			t.pending = append(t.pending, pendingEntry{e: ev, level: level})
		}
		return t.rewrite(pid, n)
	}

	left, right := t.splitNode(n)
	res, err := t.rewrite(pid, left)
	if err != nil {
		return insertResult{}, err
	}
	sibPage, err := t.allocPage()
	if err != nil {
		return insertResult{}, err
	}
	if err := t.writeNode(sibPage, right); err != nil {
		return insertResult{}, err
	}
	res.split = &entry{mbr: right.mbr(t.dim), child: sibPage, count: right.countPoints()}
	return res, nil
}

// pickReinsertions removes the p entries whose centers are farthest from
// the node MBR center ("far reinsert" variant of the R* paper), returning
// (kept, evicted).
func (t *Tree) pickReinsertions(n *node) (kept, evicted []entry) {
	p := t.cfg.reinsertCount()
	if p >= len(n.entries) {
		p = len(n.entries) - 1
	}
	center := n.mbr(t.dim).Center()
	type distEntry struct {
		d float64
		e entry
	}
	ds := make([]distEntry, len(n.entries))
	for i := range n.entries {
		ds[i] = distEntry{d: geom.DistSq(center, n.entries[i].mbr.Center()), e: n.entries[i]}
	}
	sort.SliceStable(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	evicted = make([]entry, 0, p)
	kept = make([]entry, 0, len(n.entries)-p)
	for i, de := range ds {
		if i < p {
			evicted = append(evicted, de.e)
		} else {
			kept = append(kept, de.e)
		}
	}
	return kept, evicted
}

// splitNode implements the R* topological split: choose the axis with the
// minimum total margin over all candidate distributions, then the
// distribution on that axis with the minimum overlap (ties: minimum total
// area).
func (t *Tree) splitNode(n *node) (left, right *node) {
	m := t.cfg.minEntries()
	total := len(n.entries)
	bestAxis, bestLowSort := 0, true
	bestMargin := math.Inf(1)

	marginOf := func(entries []entry) float64 {
		var sum float64
		for k := m; k <= total-m; k++ {
			l := geom.EmptyRect(t.dim)
			r := geom.EmptyRect(t.dim)
			for i := 0; i < k; i++ {
				l.ExpandRect(entries[i].mbr)
			}
			for i := k; i < total; i++ {
				r.ExpandRect(entries[i].mbr)
			}
			sum += l.Margin() + r.Margin()
		}
		return sum
	}

	work := make([]entry, total)
	for axis := 0; axis < t.dim; axis++ {
		for _, lowSort := range []bool{true, false} {
			copy(work, n.entries)
			sortEntriesByAxis(work, axis, lowSort)
			if margin := marginOf(work); margin < bestMargin {
				bestMargin = margin
				bestAxis = axis
				bestLowSort = lowSort
			}
		}
	}

	copy(work, n.entries)
	sortEntriesByAxis(work, bestAxis, bestLowSort)
	bestK := m
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	for k := m; k <= total-m; k++ {
		l := geom.EmptyRect(t.dim)
		r := geom.EmptyRect(t.dim)
		for i := 0; i < k; i++ {
			l.ExpandRect(work[i].mbr)
		}
		for i := k; i < total; i++ {
			r.ExpandRect(work[i].mbr)
		}
		overlap := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
			bestOverlap = overlap
			bestArea = area
			bestK = k
		}
	}
	left = &node{leaf: n.leaf, entries: append([]entry(nil), work[:bestK]...)}
	right = &node{leaf: n.leaf, entries: append([]entry(nil), work[bestK:]...)}
	return left, right
}

// sortEntriesByAxis sorts by lower bound (lowSort) or upper bound along
// the axis, with the other bound as tie-breaker.
func sortEntriesByAxis(entries []entry, axis int, lowSort bool) {
	sort.SliceStable(entries, func(a, b int) bool {
		ea, eb := &entries[a], &entries[b]
		if lowSort {
			if ea.mbr.Lo[axis] != eb.mbr.Lo[axis] {
				return ea.mbr.Lo[axis] < eb.mbr.Lo[axis]
			}
			return ea.mbr.Hi[axis] < eb.mbr.Hi[axis]
		}
		if ea.mbr.Hi[axis] != eb.mbr.Hi[axis] {
			return ea.mbr.Hi[axis] < eb.mbr.Hi[axis]
		}
		return ea.mbr.Lo[axis] < eb.mbr.Lo[axis]
	})
}
