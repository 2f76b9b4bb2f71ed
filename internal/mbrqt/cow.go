package mbrqt

import (
	"errors"
	"sync"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// The tree's page lifecycle: snapshot publication for isolated readers
// and the version chain that counts them, deferred reclaim, and the
// ordered checkpoint. (The write-ahead-log side
// of the protocol lives in the ann layer; the tree only exposes the
// ordering hook.)
//
// A batch writes only pages of its writable set (claimed during that
// batch), so published pages stay byte-stable — readers of older
// snapshots race with the writer on no byte, and no page the last
// durable checkpoint references is rewritten before the next one — and a
// published ref comes back by
//
//	deferRef → retire (no snapshot reads it) → DrainReclaim (its page
//	wholly dead) → (young: free | old: Fence (checkpoint) → free) → claim
//
// A page is young when it was claimed after the last checkpoint, and
// turns old at the next. The fence protects what the last durable image
// can reach, and that image was taken before a young page was claimed
// (the page lay beyond the end of the file, or on the free list, which
// holds only pages the tree at that checkpoint did not reference): no
// durable image reaches a young page, so once no snapshot does either
// (retire) it is free at once. Recovery is unchanged by this, by
// construction: it restores the image and replays the log's logical
// operations onto it, claiming whatever pages it needs, and never
// dereferences a page the image does not reach — whatever a crash left
// under a young page's id, torn or never written, is not read (claim
// does not read). A tree without a log fences at every commit, where
// young and old come to the same thing.
//
// New, BulkLoad and Open leave every page the tree holds published and
// old, so the first batch after them already copies on write.
//
// A wholly dead page also leaves the buffer pool (Discard): its frame
// serves the next claim instead of ageing through the LRU list, and a
// young one's dirty bytes never cost a write.

// settle ends a build: the pages it claimed count as published and old.
func (rs *recordStore) settle() {
	clear(rs.writable)
	clear(rs.young)
	rs.nYoung.Store(0)
}

// deferRef is called when the tree unlinks or supersedes ref. It reports
// false when the batch owns ref's page and may reuse its storage at once;
// otherwise snapshots (and the durable root) may still read ref, which
// joins the deferred list, and its bytes must be left alone.
func (rs *recordStore) deferRef(ref nodeRef) bool {
	if rs.writable[ref.page()] {
		return false
	}
	rs.deferred = append(rs.deferred, ref)
	rs.nDeferred.Add(1)
	return true
}

// claim hands the batch a page to write, pinned, zeroed and dirty: the
// most recently freed one, if any — its old bytes are unreachable from
// every snapshot and the durable root, and are not read — or else a new
// page from the store.
func (rs *recordStore) claim() (*storage.Frame, error) {
	var f *storage.Frame
	var err error
	if n := len(rs.freePages); n > 0 {
		if f, err = rs.pool.ClaimPage(rs.freePages[n-1]); err == nil {
			rs.freePages = rs.freePages[:n-1]
			rs.nFree.Add(-1)
		}
	} else {
		f, err = rs.pool.NewPage()
	}
	if err == nil {
		rs.writable[f.ID()] = true
		rs.young[f.ID()] = true
		rs.nYoung.Add(1)
	}
	return f, err
}

// ErrClosed is what Acquire returns once CloseReaders has run.
var ErrClosed = errors.New("mbrqt: tree closed")

// chain is the snapshot version chain, oldest first: every snapshot
// since the oldest one a reader may still hold. It is the one count of
// readers: a snapshot's freed refs (those the batch that superseded it
// let go) retire only once it and every older snapshot are unpinned,
// and the tree closes to readers only once none holds a pin. mu guards
// everything here, and every link. The chain and the links are
// allocations of their own, padded on both sides to whole cache lines:
// every Acquire and Release writes them, and would otherwise evict the
// cache lines of whatever lies beside them — the Tree and Snapshot
// fields each node expansion reads, or whichever small object the
// allocator happened to place next to them, which differs from one
// process to the next.
type chain struct {
	_          linePad
	mu         sync.Mutex
	head, tail *Snapshot
	pins       int64 // summed over the chain
	closed     bool
	unpinned   *sync.Cond // made by CloseReaders, signalled at zero pins
	// reclaimQ collects retired refs for the writer's DrainReclaim.
	reclaimQ []nodeRef
	_        linePad
}

// link is a snapshot's place in the chain: the readers pinning it, the
// refs the batch that superseded it freed, and the snapshot published
// after it.
type link struct {
	_     linePad
	pins  int64
	freed []nodeRef
	next  *Snapshot
	_     linePad
}

// linePad is one cache line of padding (see chain).
type linePad [64]byte

// Publish freezes the current tree state into the newest Snapshot, the
// one Acquire pins from now on: the batch's writable pages become
// published (immutable until recycled), and the refs the batch deferred
// hang on the snapshot it supersedes until the chain retires them. The
// first Publish has nothing to supersede, so what the tree freed before
// it retires at once. Publish must only be called between batches, by
// the single writer.
func (t *Tree) Publish() {
	root, _ := t.Root()
	snap := &Snapshot{t: t, root: root, link: new(link)}
	rs := t.rs
	freed := rs.deferred
	rs.deferred = nil
	clear(rs.writable)
	c := t.chain
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tail == nil {
		c.head = snap
		t.retire(freed)
	} else {
		c.tail.link.freed = freed
		c.tail.link.next = snap
	}
	c.tail = snap
	t.trimLocked()
}

// Acquire pins the newest published snapshot for a reader, which must
// Release it exactly once when done. The tree must have been published
// once. After CloseReaders it pins nothing and returns ErrClosed.
func (t *Tree) Acquire() (*Snapshot, error) {
	c := t.chain
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.tail.link.pins++
	c.pins++
	return c.tail, nil
}

// Release unpins a snapshot Acquire returned.
func (s *Snapshot) Release() {
	c := s.t.chain
	c.mu.Lock()
	defer c.mu.Unlock()
	s.link.pins--
	c.pins--
	s.t.trimLocked()
	if c.pins == 0 && c.unpinned != nil {
		c.unpinned.Broadcast()
	}
}

// CloseReaders refuses every later Acquire and waits until the last
// pinned snapshot is released, so a reader that waits on the caller
// deadlocks both.
func (t *Tree) CloseReaders() {
	c := t.chain
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.unpinned == nil {
		c.unpinned = sync.NewCond(&c.mu)
	}
	for c.pins > 0 {
		c.unpinned.Wait()
	}
}

// Pins reports the snapshot pins readers hold.
func (t *Tree) Pins() int64 {
	t.chain.mu.Lock()
	defer t.chain.mu.Unlock()
	return t.chain.pins
}

// PublishedLen is the newest published snapshot's Len. It reads no page,
// so it needs no pin and answers after CloseReaders too.
func (t *Tree) PublishedLen() int {
	t.chain.mu.Lock()
	defer t.chain.mu.Unlock()
	return t.chain.tail.Len()
}

// trimLocked retires unpinned snapshots oldest first. A snapshot leaves
// the chain only when it is not the newest and nothing pins it; the refs
// the batch that superseded it freed then retire, since no reader can
// reach them any more. Caller holds chain.mu.
func (t *Tree) trimLocked() {
	c := t.chain
	for c.head != c.tail && c.head.link.pins == 0 {
		t.retire(c.head.link.freed)
		c.head = c.head.link.next
	}
}

// retire hands refs no snapshot reaches to the writer's DrainReclaim.
// Their cache entries die here, not earlier: a reader of an older
// snapshot could re-populate the cache after a premature invalidation,
// and the stale decode would outlive the ref. Caller holds chain.mu.
func (t *Tree) retire(refs []nodeRef) {
	cache := t.cache.Load()
	for _, ref := range refs {
		cache.Invalidate(storage.PageID(ref))
	}
	t.chain.reclaimQ = append(t.chain.reclaimQ, refs...)
}

// DrainReclaim processes the retired refs: a page they leave wholly dead is free at once when it is young, and
// otherwise moves to the drained list, where it waits for the fence.
// Called by the writer, typically at batch start and inside
// CheckpointWith.
func (t *Tree) DrainReclaim() error {
	rs := t.rs
	t.chain.mu.Lock()
	q := t.chain.reclaimQ
	t.chain.reclaimQ = nil
	t.chain.mu.Unlock()
	rs.nDeferred.Add(-int64(len(q)))
	for _, ref := range q {
		page, whole, err := rs.pageDead(ref)
		if err != nil {
			return err
		}
		if !whole {
			continue
		}
		rs.pool.Discard(page)
		if rs.young[page] {
			delete(rs.young, page)
			rs.nYoung.Add(-1)
			rs.freePages = append(rs.freePages, page)
			rs.nFree.Add(1)
			continue
		}
		rs.drained = append(rs.drained, page)
		rs.nDrained.Add(1)
	}
	return nil
}

// Fence moves the drained pages to the free list. Only sound once no
// durable root references them: at the end of a checkpoint, or at any
// time for a tree that has no durable state to recover.
func (t *Tree) Fence() {
	rs := t.rs
	rs.freePages = append(rs.freePages, rs.drained...)
	rs.nFree.Add(int64(len(rs.drained)))
	rs.drained = nil
	rs.nDrained.Store(0)
}

// PageGauges reports the free pages, the drained pages awaiting a
// fence, the deferred refs not yet drained, and the live young pages.
// Safe from any goroutine.
func (t *Tree) PageGauges() (free, drained, deferred, young int64) {
	rs := t.rs
	return rs.nFree.Load(), rs.nDrained.Load(), rs.nDeferred.Load(), rs.nYoung.Load()
}

// Flush is CheckpointWith without a hook.
func (t *Tree) Flush() error { return t.CheckpointWith(nil) }

// CheckpointWith makes the current tree state durable with the ordering
// crash recovery depends on: every data page is flushed and synced
// BEFORE the header page, with the hook running between the two syncs,
// so a crash mid-checkpoint can never leave a durable header pointing at
// unwritten pages. The ann layer's hook appends the header image to the
// WAL and syncs it, so a crash at any point leaves either the old
// checkpoint (data pages untouched by copy-on-write) or a WAL-recorded
// new one. Every live young page turns old at the start — the new image
// reaches it — and after the header sync the drained pages are fenced
// for reuse. Must not run concurrently with mutation, and only between
// batches (no unpublished writes).
func (t *Tree) CheckpointWith(hook func(metaPage []byte) error) error {
	if err := t.DrainReclaim(); err != nil {
		return err
	}
	// Youth ends before the first byte of the new image can reach the
	// disk, not after the last: a checkpoint that fails once its hook has
	// run leaves a recoverable image that reaches these pages, and the
	// writer may go on. (Failing earlier, they only wait a fence longer.)
	clear(t.rs.young)
	t.rs.nYoung.Store(0)
	if err := t.writeMeta(); err != nil {
		return err
	}
	if err := t.stageImage(hook); err != nil {
		// The new header stays off the disk for good, not only until the
		// next page fault evicts it: the log still describes the old one,
		// and would be replayed onto this one.
		t.pool.Discard(t.meta)
		return err
	}
	if err := t.pool.FlushPage(t.meta); err != nil {
		return err
	}
	if err := t.pool.Store().Sync(); err != nil {
		return err
	}
	t.Fence()
	return nil
}

// stageImage is the part of a checkpoint the header page must wait for:
// the data pages flushed and synced, then the hook. No page faults
// happen between writeMeta and here, so the dirty header cannot be
// evicted — and hit the disk — before the hook has made the new state
// recoverable.
func (t *Tree) stageImage(hook func(metaPage []byte) error) error {
	if err := t.pool.FlushAllExcept(t.meta); err != nil {
		return err
	}
	if err := t.pool.Store().Sync(); err != nil {
		return err
	}
	if hook == nil {
		return nil
	}
	f, err := t.pool.Get(t.meta)
	if err != nil {
		return err
	}
	page := make([]byte, storage.PageSize)
	copy(page, f.Data())
	f.Release()
	return hook(page)
}

// Snapshot is a frozen, traversal-only view of a tree as of one Publish.
// It implements index.Tree and index.NodeCacher over the pages that were
// live at publication, which copy-on-write keeps byte-stable, so any
// number of snapshot readers run concurrently with the writer. Reads go
// through the tree's read path, and the node cache is the tree's: refs
// are unique across snapshots of one tree (recycled only after
// invalidation).
type Snapshot struct {
	t    *Tree
	root index.Entry
	link *link
}

// Dim implements index.Tree.
func (s *Snapshot) Dim() int { return s.t.dim }

// Len implements index.Tree.
func (s *Snapshot) Len() int { return int(s.root.Count) }

// Bounds implements index.Tree.
func (s *Snapshot) Bounds() geom.Rect { return s.root.MBR.Clone() }

// Root implements index.Tree.
func (s *Snapshot) Root() (index.Entry, error) {
	e := s.root
	e.MBR = e.MBR.Clone()
	return e, nil
}

// Expand implements index.Tree.
func (s *Snapshot) Expand(e *index.Entry) ([]index.Entry, error) { return s.t.Expand(e) }

// Visit implements index.Tree.
func (s *Snapshot) Visit(child storage.PageID, fn func(index.Block) error) error {
	return s.t.Visit(child, fn)
}

// SetNodeCache implements index.NodeCacher by attaching to the tree.
func (s *Snapshot) SetNodeCache(c *index.NodeCache) { s.t.SetNodeCache(c) }

// NodeCacheRef implements index.NodeCacher.
func (s *Snapshot) NodeCacheRef() *index.NodeCache { return s.t.NodeCacheRef() }

// Pool returns the tree's buffer pool, so a query report over a snapshot
// accounts the page traffic it caused (core.QueryReport.Pool).
func (s *Snapshot) Pool() *storage.BufferPool { return s.t.pool }

// RefPage is the tree's RefPage, for the engine's page hints.
func (s *Snapshot) RefPage(ref storage.PageID) storage.PageID { return s.t.RefPage(ref) }

// PageBounds is the tree's PageBounds, for the engine's page hints.
func (s *Snapshot) PageBounds(data []byte) (geom.Rect, bool) { return s.t.PageBounds(data) }
