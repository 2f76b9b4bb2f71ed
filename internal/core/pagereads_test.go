package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// TestPoolMissesPinned holds the paper's cost, page reads, to exact
// counts: a k = 1 self-join over 20 K TAC points, then a fixed set of
// 500 kNN probes, behind a cold 8-frame pool with the node cache off, so
// that every node visit goes to the pool. The index is 70 pages, so the
// pool holds a tenth of it, as 64 frames do of the page-file benchmark's
// 200 K-point index; at 64 frames this index fits and the join reads each
// page once. The traversal is deterministic, so a count moves only when
// the engine visits different nodes, tells the pool other pages are
// finished, or the index places its records differently. The same join
// behind a pool that holds the whole file, where the join has nothing to
// tell the pool, gives the same rows and the same Stats.
func TestPoolMissesPinned(t *testing.T) {
	const (
		joinMisses  = 492 // 547 before the bulk load filled pages along the Hilbert curve; 550 before the join told the pool which pages it had finished with; 888 while internal records shared pages with leaves
		probeMisses = 702 // 743, 743 and 1 311 then
		snapMisses  = 491 // the join over a snapshot: no header read
	)
	store := storage.NewMemStore()
	load := storage.NewBufferPool(store, 64)
	built, err := mbrqt.BulkLoad(load, datagen.TACSurrogate(1, 20_000), nil, mbrqt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := load.FlushAll(); err != nil {
		t.Fatal(err)
	}
	join := func(frames int) (*storage.BufferPool, *mbrqt.Tree, []Result, Stats) {
		pool := storage.NewBufferPool(store, frames)
		tree, err := mbrqt.Open(pool, built.MetaPage())
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{K: 1, ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled}
		rows, stats, err := CollectContext(context.Background(), tree, tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != tree.Len() {
			t.Fatalf("self-join emitted %d rows for %d points", len(rows), tree.Len())
		}
		return pool, tree, rows, stats
	}
	pool, tree, rows, stats := join(8)
	if got := pool.Stats().Misses; got != joinMisses {
		t.Errorf("self-join missed the pool %d times, pinned %d", got, joinMisses)
	}
	_, _, wantRows, wantStats := join(128)
	if stats != wantStats {
		t.Errorf("Stats behind 8 frames %+v, behind the whole file %+v", stats, wantStats)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Error("rows behind 8 frames differ from rows behind the whole file")
	}

	rng := rand.New(rand.NewSource(40))
	b := tree.Bounds()
	pool.ResetStats()
	for i := 0; i < 500; i++ {
		q := geom.Point{b.Lo[0] + rng.Float64()*(b.Hi[0]-b.Lo[0]), b.Lo[1] + rng.Float64()*(b.Hi[1]-b.Lo[1])}
		if _, err := index.NearestNeighbors(tree, q, 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.Stats().Misses; got != probeMisses {
		t.Errorf("kNN probes missed the pool %d times, pinned %d", got, probeMisses)
	}

	// The same join over a published snapshot, as the ann layer runs it:
	// the page hints reach the tree through the snapshot. The pool's stats
	// are reset after Open's header read.
	snapPool := storage.NewBufferPool(store, 8)
	snapTree, err := mbrqt.Open(snapPool, built.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	snapTree.Publish()
	snap, err := snapTree.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	snapPool.ResetStats()
	snapRows, _, err := CollectContext(context.Background(), snap, snap, Options{K: 1, ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled})
	if err != nil {
		t.Fatal(err)
	}
	if got := snapPool.Stats().Misses; got != snapMisses {
		t.Errorf("self-join over a snapshot missed the pool %d times, pinned %d", got, snapMisses)
	}
	if !reflect.DeepEqual(snapRows, wantRows) {
		t.Error("rows over a snapshot differ from rows over the tree")
	}
	t.Run("fig6_fc29k_k10", figure6Misses)
}

// figure6Misses holds Fig 6's k = 10 join to exact counts: a self-join
// over 29 K FC points behind the paper's 64-frame pool, node cache off.
// The 10-D index halves only some of its dimensions at a split, so a change
// to that rule moves the nodes expanded on both sides and, through the
// records' placement, the pool's misses.
func figure6Misses(t *testing.T) {
	const (
		misses = 1019  // 1 252 while every split halved all ten dimensions
		nodesR = 1681  // 2 937 then
		nodesS = 14262 // 41 320 then
	)
	store := storage.NewMemStore()
	load := storage.NewBufferPool(store, 16384)
	built, err := mbrqt.BulkLoad(load, datagen.FCSurrogate(1, 29_000), nil, mbrqt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := load.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(store, 64)
	tree, err := mbrqt.Open(pool, built.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	opts := Options{K: 10, ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled}
	stats, err := RunContext(context.Background(), tree, tree, opts, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats().Misses; got != misses {
		t.Errorf("the join missed the pool %d times, pinned %d", got, misses)
	}
	if stats.NodesExpandedR != nodesR || stats.NodesExpandedS != nodesS {
		t.Errorf("the join expanded %d I_R and %d I_S nodes, pinned %d and %d",
			stats.NodesExpandedR, stats.NodesExpandedS, nodesR, nodesS)
	}
}
