package index

import (
	"unsafe"

	"allnn/internal/nodecache"
	"allnn/internal/storage"
)

// NodeCache is the decoded-node cache of MBRQT, the index written after
// build: it maps a node ref to the immutable entry slice produced by
// expanding that node. The key is the value the tree already stores in
// Entry.Child, so the engine's Expand(e) path becomes a cache lookup.
//
// Cached slices and everything they reference (points, MBR coordinate
// slabs) are shared between every Get of the same page and must never be
// mutated.
type NodeCache = nodecache.Cache[[]Entry]

// DefaultNodeCacheBytes is the budget used when a caller enables caching
// without choosing a size. 32 MiB holds the decoded hot set of the paper's
// full-scale datasets with room to spare, while staying small next to the
// raw data.
const DefaultNodeCacheBytes = 32 << 20

// NewNodeCache creates a decoded-node cache bounded to maxBytes
// (DefaultNodeCacheBytes when maxBytes is 0).
func NewNodeCache(maxBytes int64) *NodeCache {
	if maxBytes == 0 {
		maxBytes = DefaultNodeCacheBytes
	}
	return nodecache.New[[]Entry](maxBytes)
}

// NewNodeCacheHinted is NewNodeCache with an expected-concurrent-readers
// hint: the cache's shard count is sized to cover that many parallel
// workers (see nodecache.ShardsFor). The engine uses this when attaching
// caches for a parallel run.
func NewNodeCacheHinted(maxBytes int64, readers int) *NodeCache {
	if maxBytes == 0 {
		maxBytes = DefaultNodeCacheBytes
	}
	return nodecache.NewWithHint[[]Entry](maxBytes, readers)
}

// NodeCacher is implemented by index trees that can expand through a
// decoded-node cache (MBRQT and its snapshots). The engine attaches a cache
// before a run and reads its stats after.
type NodeCacher interface {
	// SetNodeCache attaches the cache used by Expand; nil detaches it.
	SetNodeCache(c *NodeCache)
	// NodeCacheRef returns the currently attached cache (nil when none).
	NodeCacheRef() *NodeCache
}

// entryFixedSize is the resident size of the Entry struct itself.
const entryFixedSize = int64(unsafe.Sizeof(Entry{}))

// EntriesFootprint reports the resident bytes of a decoded entry slice:
// the slice backing array plus the coordinate slabs its rects and points
// reference. Entries within a node share slabs, so footprint is counted
// once per distinct backing array — in practice each decoded node carries
// one packed coordinate slab per field, and counting per-entry float
// lengths overestimates only when entries alias, which is the safe
// direction for a byte budget.
func EntriesFootprint(entries []Entry) int64 {
	b := entryFixedSize * int64(cap(entries))
	for i := range entries {
		e := &entries[i]
		b += 8 * int64(len(e.MBR.Lo)+len(e.MBR.Hi)+len(e.Point))
	}
	return b
}

// CachePut stores a freshly decoded entry slice under id, computing its
// footprint. It is a no-op on a nil cache.
func CachePut(c *NodeCache, id storage.PageID, entries []Entry) {
	if c == nil {
		return
	}
	c.Put(id, entries, EntriesFootprint(entries))
}
