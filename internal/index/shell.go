package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"allnn/internal/geom"
	"allnn/internal/storage"
)

// Source is the space decomposition inside a Shell: where a tree's bytes
// lie and what its current state is. Both trees implement it on *Tree.
type Source interface {
	Dim() int
	Height() int
	// Root reads no page in either tree; see Tree.Root.
	Root() (Entry, error)
	Visit(child storage.PageID, fn func(Block) error) error
}

// Shell is everything around a space decomposition that is the same for
// MBRQT and the R*-tree, which embed it: the decoded-node cache slot and
// the Expand that consults it, and the copy-on-write page lifecycle —
// snapshot publication for isolated readers, deferred reclaim, and the
// ordered checkpoint. (The write-ahead-log side of the protocol lives in
// the ann layer; the Shell only exposes the ordering hook.)
//
// A ref is the value a tree stores in Entry.Child: a page id for the
// R*-tree, page and slot for MBRQT. A batch writes only pages of its
// writable set (claimed during that batch), so published pages stay
// byte-stable — readers of older snapshots race with the writer on no
// byte, and no page the last durable checkpoint references is rewritten
// before the next one — and a published ref comes back by
//
//	Defer → release (no snapshot reads it) → DrainReclaim (its page
//	wholly dead) → (young: free | old: Fence (checkpoint) → free) → Claim
//
// A page is young when it was claimed after the last checkpoint, and
// turns old at the next. The fence protects what the last durable image
// can reach, and that image was taken before a young page was claimed
// (the page lay beyond the end of the file, or on the free list, which
// holds only pages the tree at that checkpoint did not reference): no
// durable image reaches a young page, so once no snapshot does either
// (release) it is free at once. Recovery is unchanged by this, by
// construction: it restores the image and replays the log's logical
// operations onto it, claiming whatever pages it needs, and never
// dereferences a page the image does not reach — whatever a crash left
// under a young page's id, torn or never written, is not read (Claim
// does not read). A tree without a log fences at every commit, where
// young and old come to the same thing.
//
// A wholly dead page also leaves the buffer pool (Discard): its frame
// serves the next claim instead of ageing through the LRU list, and a
// young one's dirty bytes never cost a write.
//
// The two points where the trees differ are injected: writeMeta renders
// the tree header into the meta page, and dead says when a released ref
// leaves its page without a live record. Only a tree that is written
// after build defers refs, so only MBRQT has a dead; the R*-tree passes
// nil.
type Shell struct {
	pool      *storage.BufferPool
	meta      storage.PageID
	src       Source
	writeMeta func() error
	dead      func(ref storage.PageID) (page storage.PageID, whole bool, err error)

	// cache, when attached, serves Expand from decoded entry slices keyed
	// by ref, so it must not be shared with a tree whose refs could
	// collide. The pointer is atomic so concurrent readers can race with
	// an idempotent re-attach; the cache itself is concurrency-safe.
	cache atomic.Pointer[NodeCache]

	// Writer-owned copy-on-write state; inert until EnableCoW.
	cow      bool
	writable map[storage.PageID]bool // pages the current batch may write
	young    map[storage.PageID]bool // live pages claimed since the last checkpoint
	deferred []storage.PageID        // refs unlinked on published pages this batch
	drained  []storage.PageID        // wholly dead old pages awaiting the fence
	free     []storage.PageID        // reusable pages, claimed newest first

	// reclaimQ collects deferred refs whose snapshots have all been
	// released; release functions append from reader goroutines.
	reclaimMu sync.Mutex
	reclaimQ  []storage.PageID

	// The gauges mirror len(free), len(drained), the refs between Defer
	// and DrainReclaim, and len(young), for scrapers outside the writer
	// lock.
	nFree, nDrained, nDeferred, nYoung atomic.Int64
}

// NewShell wraps the decomposition src, whose header lives in page meta
// of pool's store. dead may be nil for a tree that never calls Defer.
func NewShell(pool *storage.BufferPool, meta storage.PageID, src Source, writeMeta func() error,
	dead func(ref storage.PageID) (storage.PageID, bool, error)) *Shell {
	return &Shell{pool: pool, meta: meta, src: src, writeMeta: writeMeta, dead: dead}
}

// Pool returns the buffer pool the tree performs its I/O through.
func (s *Shell) Pool() *storage.BufferPool { return s.pool }

// MetaPage returns the page anchoring the tree inside its store.
func (s *Shell) MetaPage() storage.PageID { return s.meta }

// SetNodeCache implements NodeCacher.
func (s *Shell) SetNodeCache(c *NodeCache) { s.cache.Store(c) }

// NodeCacheRef implements NodeCacher.
func (s *Shell) NodeCacheRef() *NodeCache { return s.cache.Load() }

// Invalidate drops ref's decoded form from the node cache. The trees
// call it wherever a ref's bytes change or its storage is reused.
func (s *Shell) Invalidate(ref storage.PageID) { s.cache.Load().Invalidate(ref) }

// RootEntry builds the entry Tree.Root returns for a tree of size points
// rooted at root (storage.InvalidPage while empty).
func RootEntry(dim int, root storage.PageID, size int, bounds geom.Rect) Entry {
	if root == storage.InvalidPage {
		return Entry{Kind: NodeEntry, MBR: geom.EmptyRect(dim), Child: root}
	}
	return Entry{Kind: NodeEntry, MBR: bounds.Clone(), Child: root, Count: uint32(size)}
}

// Expand implements Tree.Expand as a collector over Visit. With a node
// cache attached a warm expansion is one lookup returning the shared
// immutable slice; a miss decodes the node and populates the cache.
func (s *Shell) Expand(e *Entry) ([]Entry, error) {
	if e.IsObject() {
		return nil, fmt.Errorf("index: Expand called on an object entry")
	}
	cache := s.cache.Load()
	if out, ok := cache.Get(e.Child); ok {
		return out, nil
	}
	// Visit is reached through an interface, so this closure and out
	// escape: two small allocations a miss on top of the decode's own,
	// which measured cheaper than pooling a collector.
	var out []Entry
	err := s.src.Visit(e.Child, func(b Block) error {
		out = appendEntries(out, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	CachePut(cache, e.Child, out)
	return out, nil
}

// appendEntries materialises b's slots behind out: one entry array per
// node (exact unless it chains) and one coordinate slab per record.
func appendEntries(out []Entry, b Block) []Entry {
	if out == nil {
		out = make([]Entry, 0, b.N)
	}
	dim := b.Dim
	if b.Leaf {
		coords := make([]float64, b.N*dim)
		for i := 0; i < b.N; i++ {
			pt := geom.Point(coords[i*dim : (i+1)*dim : (i+1)*dim])
			out = append(out, Entry{Kind: ObjectEntry, Object: b.Object(i, pt), MBR: geom.PointRect(pt), Count: 1, Point: pt})
		}
		return out
	}
	coords := make([]float64, b.N*2*dim)
	for i := 0; i < b.N; i++ {
		c := coords[i*2*dim : (i+1)*2*dim : (i+1)*2*dim]
		mbr := geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}
		child, count := b.Child(i, mbr.Lo, mbr.Hi)
		out = append(out, Entry{Kind: NodeEntry, MBR: mbr, Child: child, Count: count})
	}
	return out
}

// EnableCoW switches the tree to copy-on-write mutation: every page
// already in the store counts as published, so snapshots handed out by
// Publish read consistently while the writer advances and a crash always
// finds the last checkpoint intact. Must be called before any CoW-era
// mutation, with no snapshot extant.
func (s *Shell) EnableCoW() {
	s.cow = true
	s.writable = make(map[storage.PageID]bool)
	s.young = make(map[storage.PageID]bool)
}

// Writable reports whether the current batch may write page in place.
func (s *Shell) Writable(page storage.PageID) bool { return !s.cow || s.writable[page] }

// Defer is called by the tree when it unlinks or supersedes ref, stored
// in page. It reports false when the batch owns the page and may reuse
// ref's storage at once; otherwise snapshots (and the durable root) may
// still read ref, which joins the deferred list, and the tree must
// leave its bytes alone.
func (s *Shell) Defer(ref, page storage.PageID) bool {
	if s.Writable(page) {
		return false
	}
	s.deferred = append(s.deferred, ref)
	s.nDeferred.Add(1)
	return true
}

// FreePage makes a wholly dead page claimable at once and drops its
// frame: a page the batch owns, freed by the tree, or a young one that
// DrainReclaim found dead.
func (s *Shell) FreePage(page storage.PageID) {
	s.pool.Discard(page)
	if s.young[page] {
		delete(s.young, page)
		s.nYoung.Add(-1)
	}
	s.free = append(s.free, page)
	s.nFree.Add(1)
}

// Claim hands the batch a page to write, pinned, zeroed and dirty: the
// most recently freed one, if any — its old bytes are unreachable from
// every snapshot and the durable root, and are not read — or else a new
// page from the store.
func (s *Shell) Claim() (*storage.Frame, error) {
	var f *storage.Frame
	var err error
	if n := len(s.free); n > 0 {
		if f, err = s.pool.ClaimPage(s.free[n-1]); err == nil {
			s.free = s.free[:n-1]
			s.nFree.Add(-1)
		}
	} else {
		f, err = s.pool.NewPage()
	}
	if err == nil && s.cow {
		s.writable[f.ID()] = true
		s.young[f.ID()] = true
		s.nYoung.Add(1)
	}
	return f, err
}

// Publish freezes the current tree state into a Snapshot readers can
// traverse concurrently with later mutation batches: the batch's
// writable pages become published (immutable until recycled). The
// caller must invoke the returned release function exactly once, after
// every reader that could still hold the PREVIOUS snapshot has finished:
// it retires the refs this batch deferred. Publish itself must only be
// called between batches, by the single writer.
func (s *Shell) Publish() (*Snapshot, func()) {
	snap := &Snapshot{sh: s, height: s.src.Height()}
	snap.root, snap.rootErr = s.src.Root()
	freed := s.deferred
	s.deferred = nil
	clear(s.writable)
	release := func() {
		if len(freed) == 0 {
			return
		}
		// Runs from whatever goroutine drops the last reference to the
		// superseded snapshot; everything here is concurrency-safe. The
		// cache entries must die here, not earlier: a reader of the old
		// snapshot could re-populate the cache after a premature
		// invalidation, and the stale decode would outlive the ref.
		cache := s.cache.Load()
		for _, ref := range freed {
			cache.Invalidate(ref)
		}
		s.reclaimMu.Lock()
		s.reclaimQ = append(s.reclaimQ, freed...)
		s.reclaimMu.Unlock()
	}
	return snap, release
}

// DrainReclaim processes refs whose release functions have fired: a
// page they leave wholly dead is free at once when it is young, and
// otherwise moves to the drained list, where it waits for the fence.
// Called by the writer, typically at batch start and inside
// CheckpointWith.
func (s *Shell) DrainReclaim() error {
	s.reclaimMu.Lock()
	q := s.reclaimQ
	s.reclaimQ = nil
	s.reclaimMu.Unlock()
	s.nDeferred.Add(-int64(len(q)))
	for _, ref := range q {
		page, whole, err := s.dead(ref)
		if err != nil {
			return err
		}
		if !whole {
			continue
		}
		if s.young[page] {
			s.FreePage(page)
			continue
		}
		s.pool.Discard(page)
		s.drained = append(s.drained, page)
		s.nDrained.Add(1)
	}
	return nil
}

// Fence moves the drained pages to the free list. Only sound once no
// durable root references them: at the end of a checkpoint, or at any
// time for a tree that has no durable state to recover.
func (s *Shell) Fence() {
	s.free = append(s.free, s.drained...)
	s.nFree.Add(int64(len(s.drained)))
	s.drained = nil
	s.nDrained.Store(0)
}

// PageGauges reports the free pages, the drained pages awaiting a
// fence, the deferred refs not yet drained, and the live young pages.
// Safe from any goroutine.
func (s *Shell) PageGauges() (free, drained, deferred, young int64) {
	return s.nFree.Load(), s.nDrained.Load(), s.nDeferred.Load(), s.nYoung.Load()
}

// AdoptFree resets the free list to every page of the store that
// reachable does not name, the meta page apart: what a previous process
// left dead, or claimed and never checkpointed. The tree must equal its
// durable image, with nothing deferred or drained — right after Open or
// a checkpoint, before the first batch. Low page ids are claimed first.
func (s *Shell) AdoptFree(reachable func(storage.PageID) bool) {
	s.free = s.free[:0]
	for id := storage.PageID(s.pool.Store().NumPages()); id > 0; id-- {
		if page := id - 1; page != s.meta && !reachable(page) {
			s.free = append(s.free, page)
		}
	}
	s.nFree.Store(int64(len(s.free)))
}

// Flush is CheckpointWith without a hook.
func (s *Shell) Flush() error { return s.CheckpointWith(nil) }

// CheckpointWith makes the current tree state durable with the ordering
// crash recovery depends on: every data page is flushed and synced
// BEFORE the header page, with the hook running between the two syncs,
// so a crash mid-checkpoint can never leave a durable header pointing at
// unwritten pages. The ann layer's hook appends the header image to the
// WAL and syncs it, so a crash at any point leaves either the old
// checkpoint (data pages untouched by CoW) or a WAL-recorded new one.
// Every live young page turns old at the start — the new image reaches
// it — and after the header sync the drained pages are fenced for reuse.
// Must not run concurrently with mutation, and only between batches (no
// unpublished writes).
func (s *Shell) CheckpointWith(hook func(metaPage []byte) error) error {
	if err := s.DrainReclaim(); err != nil {
		return err
	}
	// Youth ends before the first byte of the new image can reach the
	// disk, not after the last: a checkpoint that fails once its hook has
	// run leaves a recoverable image that reaches these pages, and the
	// writer may go on. (Failing earlier, they only wait a fence longer.)
	clear(s.young)
	s.nYoung.Store(0)
	if err := s.writeMeta(); err != nil {
		return err
	}
	if err := s.stageImage(hook); err != nil {
		// The new header stays off the disk for good, not only until the
		// next page fault evicts it: the log still describes the old one,
		// and would be replayed onto this one.
		s.pool.Discard(s.meta)
		return err
	}
	if err := s.pool.FlushPage(s.meta); err != nil {
		return err
	}
	if err := s.pool.Store().Sync(); err != nil {
		return err
	}
	s.Fence()
	return nil
}

// stageImage is the part of a checkpoint the header page must wait for:
// the data pages flushed and synced, then the hook. No page faults
// happen between writeMeta and here, so the dirty header cannot be
// evicted — and hit the disk — before the hook has made the new state
// recoverable.
func (s *Shell) stageImage(hook func(metaPage []byte) error) error {
	if err := s.pool.FlushAllExcept(s.meta); err != nil {
		return err
	}
	if err := s.pool.Store().Sync(); err != nil {
		return err
	}
	if hook == nil {
		return nil
	}
	f, err := s.pool.Get(s.meta)
	if err != nil {
		return err
	}
	page := make([]byte, storage.PageSize)
	copy(page, f.Data())
	f.Release()
	return hook(page)
}

// Snapshot is a frozen, traversal-only view of a tree as of one Publish.
// It implements Tree and NodeCacher over the pages that were live at
// publication, which copy-on-write keeps byte-stable, so any number of
// snapshot readers run concurrently with the writer. Reads go through
// the parent tree's read path, and the node cache is the parent's: refs
// are unique across snapshots of one tree (recycled only after
// invalidation).
type Snapshot struct {
	sh      *Shell
	root    Entry
	rootErr error
	height  int
}

// Dim implements Tree.
func (s *Snapshot) Dim() int { return s.sh.src.Dim() }

// Len implements Tree.
func (s *Snapshot) Len() int { return int(s.root.Count) }

// Height returns the number of levels at publication time.
func (s *Snapshot) Height() int { return s.height }

// Bounds implements Tree.
func (s *Snapshot) Bounds() geom.Rect { return s.root.MBR.Clone() }

// Root implements Tree.
func (s *Snapshot) Root() (Entry, error) {
	e := s.root
	e.MBR = e.MBR.Clone()
	return e, s.rootErr
}

// Expand implements Tree.
func (s *Snapshot) Expand(e *Entry) ([]Entry, error) { return s.sh.Expand(e) }

// Visit implements Tree.
func (s *Snapshot) Visit(child storage.PageID, fn func(Block) error) error {
	return s.sh.src.Visit(child, fn)
}

// SetNodeCache implements NodeCacher by attaching to the parent tree.
func (s *Snapshot) SetNodeCache(c *NodeCache) { s.sh.SetNodeCache(c) }

// NodeCacheRef implements NodeCacher.
func (s *Snapshot) NodeCacheRef() *NodeCache { return s.sh.NodeCacheRef() }

// Pool returns the parent tree's buffer pool, so a query report over a
// snapshot accounts the page traffic it caused (core.QueryReport.Pool).
func (s *Snapshot) Pool() *storage.BufferPool { return s.sh.pool }

// pageMapper is what a Snapshot forwards of a tree that can say where
// its nodes lie: the page of the record an Entry.Child names, and the MBR
// of everything the records on a page hold. MBRQT implements it; the
// engine's page hints read it.
type pageMapper interface {
	RefPage(ref storage.PageID) storage.PageID
	PageBounds(data []byte) (geom.Rect, bool)
}

// RefPage forwards to a tree that can say where its nodes lie.
func (s *Snapshot) RefPage(ref storage.PageID) storage.PageID {
	if m, ok := s.sh.src.(pageMapper); ok {
		return m.RefPage(ref)
	}
	return ref
}

// PageBounds forwards to a tree that can say where its nodes lie; over
// one that cannot, no page has bounds.
func (s *Snapshot) PageBounds(data []byte) (geom.Rect, bool) {
	if m, ok := s.sh.src.(pageMapper); ok {
		return m.PageBounds(data)
	}
	return geom.Rect{}, false
}
