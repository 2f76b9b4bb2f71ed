package mbrqt

import (
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// This file holds the copy-on-write face of the tree: snapshot
// publication for isolated readers, deferred-free reclaim, and the
// ordered checkpoint that makes the tree durable without ever
// overwriting a page the previous checkpoint still references. The
// write-ahead-log side of the protocol lives in the ann layer; the tree
// only exposes the ordering hook.

// EnableCoW switches the tree to copy-on-write mutation. From here on a
// mutation batch writes only pages it allocated (or recycled from the
// checkpoint-fenced free list); published pages stay byte-stable, so
// snapshots handed out by Publish read consistently while the writer
// advances, and a crash always finds the last checkpoint intact.
// Must be called before any CoW-era mutation, with no snapshot extant.
func (t *Tree) EnableCoW() { t.rs.enableCoW() }

// Publish freezes the current tree state into a Snapshot readers can
// traverse concurrently with later mutation batches, and returns a
// release function. The caller must invoke release exactly once, after
// every reader that could still hold the PREVIOUS snapshot has finished:
// it retires the records this batch unlinked (invalidating their cache
// entries and queueing them for reclaim). Publish itself must only be
// called between batches, by the single writer.
func (t *Tree) Publish() (*Snapshot, func()) {
	snap := &Snapshot{
		t:      t,
		root:   t.root,
		size:   t.size,
		height: t.height,
		bounds: t.bounds.Clone(),
	}
	freed := t.rs.publish()
	release := func() {
		if len(freed) == 0 {
			return
		}
		// Runs from whatever goroutine drops the last reference to the
		// superseded snapshot; everything here is concurrency-safe. The
		// cache entries must die here, not earlier: a reader of the old
		// snapshot could re-populate the cache after a premature
		// invalidation, and the stale decode would outlive the record.
		cache := t.cache.Load()
		for _, ref := range freed {
			cache.Invalidate(storage.PageID(ref))
		}
		t.reclaimMu.Lock()
		t.reclaimQ = append(t.reclaimQ, freed...)
		t.reclaimMu.Unlock()
	}
	return snap, release
}

// DrainReclaim processes refs whose release functions have fired,
// advancing wholly-dead pages toward reuse. Called by the writer (it
// touches record-store state), typically at batch start and inside
// CheckpointWith.
func (t *Tree) DrainReclaim() error {
	t.reclaimMu.Lock()
	q := t.reclaimQ
	t.reclaimQ = nil
	t.reclaimMu.Unlock()
	return t.rs.reclaim(q)
}

// CheckpointWith makes the current tree state durable with the ordering
// crash recovery depends on: every data page is flushed and synced
// BEFORE the header page, with the hook running between the two syncs.
// The ann layer's hook appends the header image to the WAL and syncs it,
// so a crash at any point leaves either the old checkpoint (data pages
// untouched by CoW) or a WAL-recorded new one. After the header sync the
// drained free pages are fenced for reuse. Must not run concurrently
// with mutation, and only between batches (no unpublished writes).
func (t *Tree) CheckpointWith(hook func(metaPage []byte) error) error {
	if err := t.DrainReclaim(); err != nil {
		return err
	}
	if err := t.writeMeta(); err != nil {
		return err
	}
	// No page faults happen between writeMeta and FlushPage below, so the
	// dirty header cannot be evicted — and hit the disk — before the hook
	// has made the new state recoverable.
	if err := t.pool.FlushAllExcept(t.meta); err != nil {
		return err
	}
	if err := t.pool.Store().Sync(); err != nil {
		return err
	}
	if hook != nil {
		f, err := t.pool.Get(t.meta)
		if err != nil {
			return err
		}
		page := make([]byte, storage.PageSize)
		copy(page, f.Data())
		f.Release()
		if err := hook(page); err != nil {
			return err
		}
	}
	if err := t.pool.FlushPage(t.meta); err != nil {
		return err
	}
	if err := t.pool.Store().Sync(); err != nil {
		return err
	}
	t.rs.fence()
	return nil
}

// Snapshot is a frozen, traversal-only view of the tree as of one
// Publish. It implements index.Tree and index.NodeCacher over the pages
// that were live at publication, which copy-on-write keeps byte-stable,
// so any number of snapshot readers run concurrently with the writer.
type Snapshot struct {
	t      *Tree
	root   nodeRef
	size   int
	height int
	bounds geom.Rect
}

// Dim implements index.Tree.
func (s *Snapshot) Dim() int { return s.t.dim }

// Len implements index.Tree.
func (s *Snapshot) Len() int { return s.size }

// Height returns the number of levels at publication time.
func (s *Snapshot) Height() int { return s.height }

// Bounds implements index.Tree.
func (s *Snapshot) Bounds() geom.Rect { return s.bounds.Clone() }

// Root implements index.Tree.
func (s *Snapshot) Root() (index.Entry, error) {
	if s.root == invalidRef {
		return index.Entry{Kind: index.NodeEntry, MBR: geom.EmptyRect(s.t.dim), Child: storage.PageID(invalidRef)}, nil
	}
	return index.Entry{
		Kind:  index.NodeEntry,
		MBR:   s.bounds.Clone(),
		Child: storage.PageID(s.root),
		Count: uint32(s.size),
	}, nil
}

// Expand implements index.Tree. Snapshot refs resolve against pages the
// writer never rewrites, so the parent tree's read path serves them.
func (s *Snapshot) Expand(e *index.Entry) ([]index.Entry, error) { return s.t.Expand(e) }

// Visit implements index.Tree the same way.
func (s *Snapshot) Visit(child storage.PageID, fn func(index.Block) error) error {
	return s.t.Visit(child, fn)
}

// SetNodeCache implements index.NodeCacher by attaching to the parent
// tree: refs are unique across snapshots of one tree (recycled only
// after invalidation), so the cache is shared.
func (s *Snapshot) SetNodeCache(c *index.NodeCache) { s.t.SetNodeCache(c) }

// NodeCacheRef implements index.NodeCacher.
func (s *Snapshot) NodeCacheRef() *index.NodeCache { return s.t.NodeCacheRef() }

// Pool returns the parent tree's buffer pool, so a query report over a
// snapshot accounts the page traffic it caused (core.QueryReport.Pool).
func (s *Snapshot) Pool() *storage.BufferPool { return s.t.pool }
