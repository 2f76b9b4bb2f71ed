package core

import (
	"context"
	"math/rand"
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
// that every node visit goes to the pool. The index is 77 pages, so the
// pool holds a tenth of it, as 64 frames do of the page-file benchmark's
// 200 K-point index; at 64 frames this index fits and the join reads each
// page once. The traversal is deterministic, so a count moves only when
// the engine visits different nodes or the index places its records
// differently.
func TestPoolMissesPinned(t *testing.T) {
	const (
		joinMisses  = 550 // 888 while internal records shared pages with leaves
		probeMisses = 743 // 1 311 then
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
	pool := storage.NewBufferPool(store, 8)
	tree, err := mbrqt.Open(pool, built.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 1, ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled}
	rows := 0
	if _, err := RunContext(context.Background(), tree, tree, opts, func(Result) error { rows++; return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != tree.Len() {
		t.Fatalf("self-join emitted %d rows for %d points", rows, tree.Len())
	}
	if got := pool.Stats().Misses; got != joinMisses {
		t.Errorf("self-join missed the pool %d times, pinned %d", got, joinMisses)
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
}
