package core

import (
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// pageHints tells a buffer pool that is smaller than the index file which
// resident pages a serial join has finished with, so that LRU evicts
// those first (storage.BufferPool.Demote). The pool's own LRU order
// knows only the past; the engine knows what work is still pending.
//
// After every I_R leaf join that followed a pool miss, a resident,
// unpinned page is demoted when both of these hold:
//   - it holds no record of a pending owner — an LPQ that dfbi has
//     created and not yet started — nor of a node queued in one;
//   - its content MBR lies farther than reach from every pending owner.
//
// reach (squared) is the largest admission bound a finished leaf join
// ended with: how far from its owners a leaf join has had to look.
//
// It is a prediction, not a proof. A sound rule would have to keep every
// page within an upper-level pending owner's loose bound, which is
// nearly every page. A wrong guess costs one re-read of the page, never
// an answer: demotion changes which frame the pool reuses, not what the
// engine reads, so rows and Stats are those of plain LRU.
type pageHints struct {
	pool   *storage.BufferPool
	paged  paged
	misses uint64  // the pool's misses at the last check
	reach  float64 // largest final maxOwnerBound of a leaf join so far
	// pending holds, per dfbi level on the stack, the sibling LPQs not
	// yet started.
	pending [][]*lpq
	// pages holds what the hints know of each page, by page id, and ids
	// the resident, unpinned pages of the current check.
	pages []pageState
	ids   []storage.PageID
}

// paged is implemented by trees whose nodes lie in the pages of one
// buffer pool and that can say where (mbrqt.Tree, mbrqt.Snapshot): the
// page of the record an Entry.Child names, and the MBR of everything the
// records on a page hold — false for a page the tree cannot read.
type paged interface {
	pooled
	RefPage(ref storage.PageID) storage.PageID
	PageBounds(data []byte) (geom.Rect, bool)
}

type pageState struct {
	// r is the page's content MBR, read once per join from its resident
	// frame once read is set; ok is false for a page the tree cannot read.
	r        geom.Rect
	read, ok bool
	// resident marks a page of the current check, keep one that pending
	// work names.
	resident, keep bool
}

// newPageHints returns the hints for a serial join over ir and is, or nil
// when they cannot help: the trees do not share one pool they can
// describe, or the pool holds the whole file and never needs a victim.
func newPageHints(ir, is index.Tree) *pageHints {
	pr, ok := ir.(paged)
	ps, ok2 := is.(paged)
	if !ok || !ok2 || pr.Pool() == nil || pr.Pool() != ps.Pool() {
		return nil
	}
	pool := ps.Pool()
	if pool.NumFrames() >= pool.Store().NumPages() {
		return nil
	}
	return &pageHints{pool: pool, paged: ps, misses: pool.Stats().Misses}
}

// push records the children dfbi is about to descend into as pending.
func (h *pageHints) push(children []*lpq) { h.pending = append(h.pending, children) }

// start takes the top level's first pending child off the list as dfbi
// descends into it.
func (h *pageHints) start() {
	top := len(h.pending) - 1
	h.pending[top] = h.pending[top][1:]
}

// pop drops the top level once all its children are done.
func (h *pageHints) pop() { h.pending = h.pending[:len(h.pending)-1] }

// afterLeaf runs after an I_R leaf join that ended with admission bound
// bound. The demotion check runs only when the pool has missed since the
// last one: until a miss, the resident pages are the ones last checked.
func (h *pageHints) afterLeaf(bound float64) {
	h.reach = max(h.reach, bound)
	misses := h.pool.Stats().Misses
	if misses == h.misses {
		return
	}
	h.misses = misses
	h.ids = h.ids[:0]
	h.pool.Unpinned(func(id storage.PageID, data []byte) {
		if int(id) >= len(h.pages) {
			h.pages = append(h.pages, make([]pageState, int(id)+1-len(h.pages))...)
		}
		p := &h.pages[id]
		if !p.read {
			p.r, p.ok = h.paged.PageBounds(data)
			p.read = true
		}
		p.resident = true
		h.ids = append(h.ids, id)
	})
	for _, level := range h.pending {
		for _, q := range level {
			h.mark(q.owner)
			for i := q.head; i < len(q.items); i++ {
				if e := q.items[i].e; !e.IsObject() {
					h.mark(e)
				}
			}
		}
	}
	// Unpinned lists pages most recently used first, and each demotion
	// goes to the evict-first end: the demoted pages keep their LRU order.
	for _, id := range h.ids {
		p := &h.pages[id]
		if !p.keep && h.far(p) {
			h.pool.Demote(id)
		}
		p.resident, p.keep = false, false
	}
}

// mark keeps the resident page holding node e's record.
func (h *pageHints) mark(e *index.Entry) {
	if id := h.paged.RefPage(e.Child); int(id) < len(h.pages) && h.pages[id].resident {
		h.pages[id].keep = true
	}
}

// far reports whether a page's content lies beyond reach of every
// pending owner.
func (h *pageHints) far(p *pageState) bool {
	if !p.ok {
		return false
	}
	for _, level := range h.pending {
		for _, q := range level {
			if geom.MinDistSq(p.r, q.owner.MBR) <= h.reach {
				return false
			}
		}
	}
	return true
}
