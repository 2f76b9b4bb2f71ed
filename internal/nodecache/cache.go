// Package nodecache provides the decoded-node cache sitting between the
// spatial indexes and the page-level buffer pool. The buffer pool caches
// raw 8 KB page bytes; every index.Tree.Expand still re-parses the page
// and allocates fresh entry slices, even though ANN traversal expands the
// same I_S nodes once per owning LPQ — across sibling subtrees, across
// the Filter/Gather stages, and across parallel workers. This cache maps
// a page id to the immutable decoded value (an entry slice and the packed
// coordinate slabs it points into) so repeated expansions of a warm node
// cost one map lookup and zero allocations.
//
// The cache is generic over the cached value so the storage layer stays
// free of index types; the indexes cache []index.Entry through the
// helpers in the index package.
//
// Capacity is bounded in bytes (the caller reports each value's resident
// footprint at Put time), with LRU replacement. Like the buffer pool, the
// cache shards itself by page id for concurrency — and stays single-
// sharded below the same 128-page-equivalent threshold, so the small
// caches of paper-scale experiments keep exact global LRU behaviour and
// exact counters.
package nodecache

import (
	"runtime"
	"sync"
	"sync/atomic"

	"allnn/internal/obs"
	"allnn/internal/storage"
)

// Counters are the monotonic counters of cache activity, summed over the
// shards. Unlike residency, counters may be subtracted between two
// snapshots to obtain an exact per-run delta.
type Counters struct {
	// Hits and Misses count Get outcomes; the hit rate is the fraction
	// of node expansions served without decoding.
	Hits   uint64
	Misses uint64
	// Evictions counts values dropped to stay within the byte budget.
	Evictions uint64
	// Invalidations counts values dropped because their page mutated.
	Invalidations uint64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.Evictions += other.Evictions
	c.Invalidations += other.Invalidations
}

// AddTo accumulates the counters into a metrics registry under the given
// family prefix ("<prefix>.hits", ".misses", ".evictions",
// ".invalidations"). Used for publishing per-run deltas.
func (c Counters) AddTo(r *obs.Registry, prefix string) {
	r.Counter(prefix + ".hits").Add(c.Hits)
	r.Counter(prefix + ".misses").Add(c.Misses)
	r.Counter(prefix + ".evictions").Add(c.Evictions)
	r.Counter(prefix + ".invalidations").Add(c.Invalidations)
}

// Delta returns c - prev, the activity between two snapshots.
func (c Counters) Delta(prev Counters) Counters {
	return Counters{
		Hits:          c.Hits - prev.Hits,
		Misses:        c.Misses - prev.Misses,
		Evictions:     c.Evictions - prev.Evictions,
		Invalidations: c.Invalidations - prev.Invalidations,
	}
}

// Residency describes the cache's point-in-time occupancy. It is a gauge:
// summing residency snapshots across shards is correct for one instant,
// but accumulating residency across runs (as the old combined Stats.Add
// invited) double-counts values that simply stayed resident — which is
// why it is a separate type with no Add.
type Residency struct {
	Entries int
	Bytes   int64
}

// Stats combines the monotonic counters with the current residency, for
// display. It deliberately has no Add: accumulate Counters (monotonic)
// and sample Residency (gauge) separately.
type Stats struct {
	Counters
	Residency
}

// node is one cached value, linked into its shard's LRU list.
type node[V any] struct {
	id         storage.PageID
	val        V
	bytes      int64
	prev, next *node[V]
}

// shard is one independently-locked slice of the cache. A page id maps to
// exactly one shard, which runs its own byte-bounded LRU.
type shard[V any] struct {
	mu       sync.Mutex
	maxBytes int64
	table    map[storage.PageID]*node[V]
	// Doubly-linked LRU list; head is most recently used.
	head, tail *node[V]
	bytes      int64
	stats      Counters
}

// Cache is a sharded, byte-bounded LRU over decoded page values. It is
// safe for concurrent use; a nil *Cache is a valid always-miss cache
// whose methods are no-ops.
type Cache[V any] struct {
	shards   []shard[V]
	maxBytes int64
	// trace, when set, receives an instant event per Get (lane
	// obs.TidCache). One atomic load per lookup when unset.
	trace atomic.Pointer[obs.Tracer]
}

// shardThresholdPages mirrors the buffer pool's single-shard rule: below
// 128 page-equivalents of budget the cache keeps one shard and therefore
// exact global LRU replacement and exact counters.
const shardThresholdPages = 128

// minPagesPerShard keeps shards large enough that per-shard LRU still
// approximates global LRU.
const minPagesPerShard = 32

// defaultShardCount picks the shard count for New: 1 for small caches,
// otherwise a power of two scaled to the machine, every shard keeping at
// least minPagesPerShard page-equivalents of budget.
func defaultShardCount(maxBytes int64) int {
	pages := maxBytes / storage.PageSize
	if pages < shardThresholdPages {
		return 1
	}
	s := 1
	for s < 16 && s*2 <= runtime.GOMAXPROCS(0)*2 {
		s *= 2
	}
	for s > 1 && pages/int64(s) < minPagesPerShard {
		s /= 2
	}
	return s
}

// ShardsFor picks the shard count for a cache that expects the given
// number of concurrent readers (e.g. the engine's parallel workers). The
// single-shard exactness rule for small caches always wins; above the
// threshold the count is raised — beyond what defaultShardCount picks
// for the machine — to the next power of two covering readers*2, so a
// burst of workers hitting the same hot level does not serialise on a
// handful of shard locks. readers <= 1 defers to defaultShardCount.
func ShardsFor(maxBytes int64, readers int) int {
	s := defaultShardCount(maxBytes)
	if readers <= 1 {
		return s
	}
	pages := maxBytes / storage.PageSize
	if pages < shardThresholdPages {
		return s
	}
	want := 1
	for want < readers*2 && want < 64 {
		want *= 2
	}
	if want > s {
		s = want
	}
	for s > 1 && pages/int64(s) < minPagesPerShard {
		s /= 2
	}
	return s
}

// New creates a cache bounded to maxBytes of decoded values, choosing a
// shard count automatically. maxBytes must be positive.
func New[V any](maxBytes int64) *Cache[V] {
	return NewSharded[V](maxBytes, defaultShardCount(maxBytes))
}

// NewWithHint is New with an expected-concurrent-readers hint (see
// ShardsFor).
func NewWithHint[V any](maxBytes int64, readers int) *Cache[V] {
	return NewSharded[V](maxBytes, ShardsFor(maxBytes, readers))
}

// NewSharded creates a cache with an explicit shard count; the byte
// budget is split evenly across the shards.
func NewSharded[V any](maxBytes int64, numShards int) *Cache[V] {
	if maxBytes < 1 {
		maxBytes = 1
	}
	if numShards < 1 {
		numShards = 1
	}
	c := &Cache[V]{shards: make([]shard[V], numShards), maxBytes: maxBytes}
	base, extra := maxBytes/int64(numShards), maxBytes%int64(numShards)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.maxBytes = base
		if int64(i) < extra {
			sh.maxBytes++
		}
		sh.table = make(map[storage.PageID]*node[V])
	}
	return c
}

// shardOf returns the shard owning page id. The id is mixed first and the
// shard taken from the product's high bits: MBRQT keys are page<<10|slot
// and shard counts are powers of two, so a plain modulo shards on the low
// bits of the slot, and a bulk-loaded tree (a few large records at the low
// slots of every page) piles into one shard and evicts for ever while the
// others stand empty. A multiplicative hash spreads consecutive pages
// evenly rather than randomly, which a byte budget split per shard needs.
func (c *Cache[V]) shardOf(id storage.PageID) *shard[V] {
	h := uint32(id) * 0x9E3779B1 // 2^32 / golden ratio
	return &c.shards[uint64(h)*uint64(len(c.shards))>>32]
}

// Cap returns the configured byte budget.
func (c *Cache[V]) Cap() int64 {
	if c == nil {
		return 0
	}
	return c.maxBytes
}

// NumShards returns the number of independently-locked shards.
func (c *Cache[V]) NumShards() int {
	if c == nil {
		return 0
	}
	return len(c.shards)
}

// Get returns the cached value for id. The value must be treated as
// immutable: it is shared with every other Get of the same page.
func (c *Cache[V]) Get(id storage.PageID) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	sh := c.shardOf(id)
	sh.mu.Lock()
	n, ok := sh.table[id]
	if !ok {
		sh.stats.Misses++
		sh.mu.Unlock()
		if tr := c.trace.Load(); tr != nil {
			tr.Instant("cache.miss", obs.TidCache, "page", int64(id))
		}
		var zero V
		return zero, false
	}
	sh.stats.Hits++
	sh.moveFront(n)
	v := n.val
	sh.mu.Unlock()
	if tr := c.trace.Load(); tr != nil {
		tr.Instant("cache.hit", obs.TidCache, "page", int64(id))
	}
	return v, true
}

// Put stores the value for id with its resident footprint in bytes,
// evicting least recently used values as needed to stay within the
// budget. A value larger than a whole shard's budget is not retained.
// Storing for an id that is already cached replaces the old value
// (concurrent decoders may race to fill the same page; last wins).
func (c *Cache[V]) Put(id storage.PageID, v V, bytes int64) {
	if c == nil {
		return
	}
	if bytes < 1 {
		bytes = 1
	}
	sh := c.shardOf(id)
	sh.mu.Lock()
	if n, ok := sh.table[id]; ok {
		sh.bytes += bytes - n.bytes
		n.val = v
		n.bytes = bytes
		sh.moveFront(n)
	} else {
		n := &node[V]{id: id, val: v, bytes: bytes}
		sh.table[id] = n
		sh.pushFront(n)
		sh.bytes += bytes
	}
	for sh.bytes > sh.maxBytes && sh.tail != nil {
		sh.stats.Evictions++
		sh.remove(sh.tail)
	}
	sh.mu.Unlock()
}

// Invalidate drops the cached value for id, if any. Index mutation paths
// call it for every page whose decoded form went stale.
func (c *Cache[V]) Invalidate(id storage.PageID) {
	if c == nil {
		return
	}
	sh := c.shardOf(id)
	sh.mu.Lock()
	if n, ok := sh.table[id]; ok {
		sh.stats.Invalidations++
		sh.remove(n)
	}
	sh.mu.Unlock()
}

// Len returns the number of cached values.
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.table)
		sh.mu.Unlock()
	}
	return n
}

// Counters returns the accumulated monotonic counters, summed over the
// shards. Two Counters snapshots subtract into an exact per-run delta.
func (c *Cache[V]) Counters() Counters {
	var ct Counters
	if c == nil {
		return ct
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		ct.Add(sh.stats)
		sh.mu.Unlock()
	}
	return ct
}

// Residency returns the current occupancy, summed over the shards. It is
// a point-in-time gauge — never accumulate it across runs.
func (c *Cache[V]) Residency() Residency {
	var rs Residency
	if c == nil {
		return rs
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		rs.Entries += len(sh.table)
		rs.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return rs
}

// Stats returns the combined counters-plus-residency snapshot.
func (c *Cache[V]) Stats() Stats {
	return Stats{Counters: c.Counters(), Residency: c.Residency()}
}

// SetTracer attaches (or, with nil, detaches) a tracer receiving an
// instant event per Get. Safe to flip concurrently with lookups.
func (c *Cache[V]) SetTracer(t *obs.Tracer) {
	if c == nil {
		return
	}
	c.trace.Store(t)
}

// --- intrusive LRU list (all called with the shard lock held) ---------------

func (sh *shard[V]) pushFront(n *node[V]) {
	n.prev = nil
	n.next = sh.head
	if sh.head != nil {
		sh.head.prev = n
	}
	sh.head = n
	if sh.tail == nil {
		sh.tail = n
	}
}

func (sh *shard[V]) unlink(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (sh *shard[V]) moveFront(n *node[V]) {
	if sh.head == n {
		return
	}
	sh.unlink(n)
	sh.pushFront(n)
}

// remove unlinks n and deletes it from the table, adjusting residency.
func (sh *shard[V]) remove(n *node[V]) {
	sh.unlink(n)
	delete(sh.table, n.id)
	sh.bytes -= n.bytes
	var zero V
	n.val = zero // release the value for the GC
}
