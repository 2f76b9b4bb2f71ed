package rstar

import (
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// This file holds the copy-on-write face of the R*-tree, mirroring the
// one in internal/mbrqt: snapshot publication for isolated readers,
// deferred page reclaim, and the ordered checkpoint. R* nodes occupy
// whole pages, so the machinery is simpler than the quadtree's
// slotted-page variant — a page is dead the moment its node is unlinked.

// EnableCoW switches the tree to copy-on-write mutation. From here on a
// mutation batch writes only pages it allocated (or took from the
// checkpoint-fenced free list); published pages stay byte-stable, so
// snapshots handed out by Publish read consistently while the writer
// advances, and a crash always finds the last checkpoint intact. Must be
// called before any CoW-era mutation, with no snapshot extant.
func (t *Tree) EnableCoW() {
	t.cow = true
	t.writable = make(map[storage.PageID]bool)
}

// Publish freezes the current tree state into a Snapshot readers can
// traverse concurrently with later mutation batches, and returns a
// release function. The caller must invoke release exactly once, after
// every reader that could still hold the PREVIOUS snapshot has finished:
// it retires the pages this batch unlinked. Publish itself must only be
// called between batches, by the single writer.
func (t *Tree) Publish() (*Snapshot, func()) {
	snap := &Snapshot{
		t:      t,
		root:   t.root,
		size:   t.size,
		height: t.height,
		bounds: t.bounds.Clone(),
	}
	freed := t.deferred
	t.deferred = nil
	t.writable = make(map[storage.PageID]bool)
	release := func() {
		if len(freed) == 0 {
			return
		}
		// Runs from whatever goroutine drops the last reference to the
		// superseded snapshot. Cache entries must die here, not earlier: a
		// reader of the old snapshot could re-populate the cache after a
		// premature invalidation, and the stale decode would outlive the
		// page.
		cache := t.cache.Load()
		for _, pid := range freed {
			cache.Invalidate(pid)
		}
		t.reclaimMu.Lock()
		t.reclaimQ = append(t.reclaimQ, freed...)
		t.reclaimMu.Unlock()
	}
	return snap, release
}

// DrainReclaim moves released pages to the drained list, where they wait
// for a checkpoint fence before reuse. Called by the writer, typically
// at batch start and inside CheckpointWith.
func (t *Tree) DrainReclaim() error {
	t.reclaimMu.Lock()
	q := t.reclaimQ
	t.reclaimQ = nil
	t.reclaimMu.Unlock()
	t.drained = append(t.drained, q...)
	return nil
}

// CheckpointWith makes the current tree state durable with the ordering
// crash recovery depends on: every data page is flushed and synced
// BEFORE the header page, with the hook running between the two syncs.
// The ann layer's hook appends the header image to the WAL and syncs it,
// so a crash at any point leaves either the old checkpoint (data pages
// untouched by CoW) or a WAL-recorded new one. After the header sync the
// drained pages are fenced into the free list. Must not run concurrently
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
	t.freePages = append(t.freePages, t.drained...)
	t.drained = nil
	return nil
}

// Snapshot is a frozen, traversal-only view of the tree as of one
// Publish. It implements index.Tree and index.NodeCacher over the pages
// that were live at publication, which copy-on-write keeps byte-stable,
// so any number of snapshot readers run concurrently with the writer.
type Snapshot struct {
	t      *Tree
	root   storage.PageID
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
	if s.root == storage.InvalidPage {
		return index.Entry{Kind: index.NodeEntry, MBR: geom.EmptyRect(s.t.dim), Child: storage.InvalidPage}, nil
	}
	return index.Entry{
		Kind:  index.NodeEntry,
		MBR:   s.bounds.Clone(),
		Child: s.root,
		Count: uint32(s.size),
	}, nil
}

// Expand implements index.Tree. Snapshot pages are never rewritten by
// the writer, so the parent tree's read path serves them.
func (s *Snapshot) Expand(e *index.Entry) ([]index.Entry, error) { return s.t.Expand(e) }

// Visit implements index.Tree the same way.
func (s *Snapshot) Visit(child storage.PageID, fn func(index.Block) error) error {
	return s.t.Visit(child, fn)
}

// SetNodeCache implements index.NodeCacher by attaching to the parent
// tree: page ids are unique across snapshots of one tree (recycled only
// after invalidation), so the cache is shared.
func (s *Snapshot) SetNodeCache(c *index.NodeCache) { s.t.SetNodeCache(c) }

// NodeCacheRef implements index.NodeCacher.
func (s *Snapshot) NodeCacheRef() *index.NodeCache { return s.t.NodeCacheRef() }

// Pool returns the parent tree's buffer pool, so a query report over a
// snapshot accounts the page traffic it caused (core.QueryReport.Pool).
func (s *Snapshot) Pool() *storage.BufferPool { return s.t.pool }
