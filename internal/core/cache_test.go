package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"allnn/internal/index"
	"allnn/internal/mbrqt"
)

// stripCacheCounters zeroes the cache counters so runs with different
// cache configurations can be compared on their traversal counters alone.
func stripCacheCounters(s Stats) Stats {
	s.NodeCacheHits = 0
	s.NodeCacheMisses = 0
	return s
}

// TestNodeCacheTraversalInvariance is the central soundness property of
// the decoded-node cache: it may change the cost of an execution, never
// its traversal. Results and every probe/expansion counter must be
// identical between cache-off, cold-cache and warm-cache runs.
func TestNodeCacheTraversalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rPts := clusteredPoints(rng, 700, 2, 100)
	sPts := uniformPoints(rng, 600, 2, 100)
	for _, k := range []int{1, 3} {
		ir, is := buildMBRQT(t, rPts), buildMBRQT(t, sPts)
		off := Options{K: k, NodeCacheBytes: NodeCacheDisabled}
		wantRes, wantStats, err := CollectContext(context.Background(), ir, is, off)
		if err != nil {
			t.Fatal(err)
		}
		if wantStats.NodeCacheHits != 0 || wantStats.NodeCacheMisses != 0 {
			t.Fatalf("k=%d: disabled cache reports lookups: %+v", k, wantStats)
		}
		if ir.(index.NodeCacher).NodeCacheRef() != nil {
			t.Fatal("NodeCacheBytes < 0 left a cache attached")
		}
		for _, pass := range []string{"cold", "warm"} {
			on := Options{K: k}
			gotRes, gotStats, err := CollectContext(context.Background(), ir, is, on)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("k=%d/%s: cached results differ from cache-off", k, pass)
			}
			if stripCacheCounters(gotStats) != stripCacheCounters(wantStats) {
				t.Fatalf("k=%d/%s: traversal counters changed: %+v vs %+v",
					k, pass, gotStats, wantStats)
			}
			if gotStats.NodeCacheHits+gotStats.NodeCacheMisses == 0 {
				t.Fatalf("k=%d/%s: cache enabled but no lookups recorded", k, pass)
			}
			if pass == "warm" && gotStats.NodeCacheMisses != 0 {
				t.Fatalf("k=%d: warm run still misses: %+v", k, gotStats)
			}
		}
	}
}

// TestWarmExpandAllocationFree verifies the headline property: expanding
// a cache-resident node allocates nothing.
func TestWarmExpandAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tree := buildMBRQT(t, uniformPoints(rng, 2000, 2, 100))
	tree.(index.NodeCacher).SetNodeCache(index.NewNodeCache(0))
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Expand(&root); err != nil { // warm the root
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tree.Expand(&root); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Expand performs %.1f allocs/op, want 0", allocs)
	}
}

// TestNodeCacheSurvivesAcrossRuns checks that RunContext keeps a tree's cache
// (and its contents) when the budget is unchanged, and replaces it when
// the budget changes.
func TestNodeCacheSurvivesAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tree := buildMBRQT(t, uniformPoints(rng, 500, 2, 100))
	if _, _, err := CollectContext(context.Background(), tree, tree, Options{ExcludeSelf: true}); err != nil {
		t.Fatal(err)
	}
	first := tree.(index.NodeCacher).NodeCacheRef()
	if first == nil {
		t.Fatal("default options did not attach a cache")
	}
	if _, _, err := CollectContext(context.Background(), tree, tree, Options{ExcludeSelf: true}); err != nil {
		t.Fatal(err)
	}
	if tree.(index.NodeCacher).NodeCacheRef() != first {
		t.Fatal("unchanged budget replaced the cache")
	}
	if _, _, err := CollectContext(context.Background(), tree, tree, Options{ExcludeSelf: true, NodeCacheBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if c := tree.(index.NodeCacher).NodeCacheRef(); c == first || c.Cap() != 1<<20 {
		t.Fatalf("budget change did not rebuild the cache (cap %d)", c.Cap())
	}
}

// TestNodeCacheInvalidationOnMutation interleaves queries with inserts
// (and then deletes) on a warm cache and cross-checks every
// query against a cache-free run over the same tree. Stale decoded nodes
// would surface as diverging results.
func TestNodeCacheInvalidationOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	base := uniformPoints(rng, 400, 2, 100)
	// Keep the extra points strictly inside the base MBR: the MBRQT root
	// cell is fixed at bulk-load time and rejects outside points.
	extra := uniformPoints(rng, 200, 2, 90)
	for _, p := range extra {
		for d := range p {
			p[d] += 5
		}
	}

	check := func(name string, tree index.Tree) {
		cached, _, err := CollectContext(context.Background(), tree, tree, Options{ExcludeSelf: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plain, _, err := CollectContext(context.Background(), tree, tree, Options{ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(cached, plain) {
			t.Fatalf("%s: cached results diverge from cache-free results after mutation", name)
		}
	}

	t.Run("mbrqt-insert", func(t *testing.T) {
		tree := buildMBRQT(t, base).(*mbrqt.Tree)
		check("initial", tree)
		for i, p := range extra {
			if err := tree.Insert(index.ObjectID(1000+i), p); err != nil {
				t.Fatal(err)
			}
			if i%50 == 49 {
				check("after insert batch", tree)
			}
		}
		check("final", tree)
	})

	t.Run("mbrqt-insert-delete", func(t *testing.T) {
		tree := buildMBRQT(t, base).(*mbrqt.Tree)
		check("initial", tree)
		for i, p := range extra {
			if err := tree.Insert(index.ObjectID(1000+i), p); err != nil {
				t.Fatal(err)
			}
		}
		check("after inserts", tree)
		for i, p := range extra[:100] {
			ok, err := tree.Delete(index.ObjectID(1000+i), p)
			if err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
			}
			if i%25 == 24 {
				check("after delete batch", tree)
			}
		}
		check("final", tree)
	})
}
