package core

import (
	"allnn/internal/index"
	"allnn/internal/nodecache"
)

// setupNodeCaches attaches (or detaches) decoded-node caches on the two
// indexes according to Options.NodeCacheBytes and returns the distinct
// caches in use, so RunContext can report per-execution hit/miss deltas. A
// self-join passes the same tree twice and therefore yields one cache.
//
// readers is the expected number of concurrent readers (the run's
// Parallelism); a parallel run sizes the cache's shard count so workers
// do not serialise on one shard lock. Attachment is idempotent: a tree
// keeps its cache (and its warm contents) across runs as long as the
// budget does not change and the shard count still covers the readers,
// which is what makes steady-state CollectContext calls allocation-free.
func setupNodeCaches(ir, is index.Tree, budget int64, readers int) []*index.NodeCache {
	var caches []*index.NodeCache
	seen := map[*index.NodeCache]bool{}
	for _, t := range []index.Tree{ir, is} {
		nc, ok := t.(index.NodeCacher)
		if !ok {
			continue
		}
		if budget < 0 {
			nc.SetNodeCache(nil)
			continue
		}
		want := budget
		if want == 0 {
			want = index.DefaultNodeCacheBytes
		}
		shards := nodecache.ShardsFor(want, readers)
		c := nc.NodeCacheRef()
		if c == nil || c.Cap() != want || c.NumShards() < shards {
			c = index.NewNodeCacheHinted(want, readers)
			nc.SetNodeCache(c)
		}
		if !seen[c] {
			seen[c] = true
			caches = append(caches, c)
		}
	}
	return caches
}

// cacheSnapshot sums the cumulative monotonic counters of the caches.
// Residency is deliberately not part of the snapshot: it is a gauge, and
// accumulating per-run residency deltas would double-count values that
// merely stayed resident.
func cacheSnapshot(caches []*index.NodeCache) nodecache.Counters {
	var ct nodecache.Counters
	for _, c := range caches {
		ct.Add(c.Counters())
	}
	return ct
}

// addCacheDelta folds the per-run change between two snapshots into the
// execution's Stats.
func addCacheDelta(stats *Stats, before, after nodecache.Counters) {
	stats.NodeCacheHits += after.Hits - before.Hits
	stats.NodeCacheMisses += after.Misses - before.Misses
}
