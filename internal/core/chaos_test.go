package core

import (
	"context"
	"math/rand"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// chaosPoolConfig keeps the retry machinery on but makes the backoff
// sleeps negligible so the chaos runs stay fast.
var chaosPoolConfig = storage.BufferPoolConfig{
	ReadRetries:     storage.DefaultReadRetries,
	RetryBackoff:    1,
	RetryBackoffMax: 10,
}

// buildChaosTree builds an MBRQT over a FaultStore-wrapped MemStore with
// faults disarmed, flushes every page to the store, and returns the
// pieces so the caller can arm faults afterwards.
func buildChaosTree(t testing.TB, pts []geom.Point, frames int) (*mbrqt.Tree, *storage.BufferPool, *storage.FaultStore) {
	t.Helper()
	fs := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{})
	pool := storage.NewBufferPoolWithConfig(fs, frames, chaosPoolConfig)
	tree, err := mbrqt.BulkLoad(pool, pts, nil, mbrqt.Config{BucketCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return tree, pool, fs
}

// requireChaosErr accepts the only outcomes allowed under fault
// injection: success, or an error classified as transient or corrupt.
// Anything else (an unclassified error, or — via the harness — a panic)
// fails the run.
func requireChaosErr(t *testing.T, err error) {
	t.Helper()
	if err != nil && !storage.IsTransient(err) && !storage.IsCorrupt(err) {
		t.Fatalf("fault injection surfaced an unclassified error: %v", err)
	}
}

// TestChaosPointQueriesUnderFaults runs 10k nearest-neighbor queries
// against a tree whose store fails 1% of reads. With retries on, almost
// all queries succeed; the rest must surface classified errors, and the
// pool must end every query with zero pinned frames.
func TestChaosPointQueriesUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := clusteredPoints(rng, 2000, 2, 100)
	// The slotted pages pack many nodes each, so the pool must be smaller
	// than the page count for queries to reach the (faulty) store at all.
	tree, pool, fs := buildChaosTree(t, pts, 4)
	if n := fs.NumPages(); n <= 4 {
		t.Fatalf("tree occupies only %d pages; pool would mask the store", n)
	}
	fs.SetConfig(storage.FaultConfig{Seed: 42, ReadErrProb: 0.01})

	const queries = 10000
	failed := 0
	for i := 0; i < queries; i++ {
		q := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		_, err := index.NearestNeighbors(tree, q, 3)
		requireChaosErr(t, err)
		if err != nil {
			failed++
		}
		storage.RequireNoPinnedFrames(t, pool)
		if t.Failed() {
			t.Fatalf("pinned frames leaked after query %d (err=%v)", i, err)
		}
	}
	// With 3 retries a 1% fault rate needs four consecutive failures to
	// surface, so nearly every query must have recovered.
	if failed > queries/100 {
		t.Fatalf("%d of %d queries failed; retries should have absorbed almost all faults", failed, queries)
	}
	if st := pool.Stats(); st.Retries == 0 {
		t.Fatal("no retries recorded despite 1% read fault rate")
	}
	t.Logf("chaos: %d/%d queries failed, %d retries, %d injected read errors",
		failed, queries, pool.Stats().Retries, fs.Stats().ReadErrors)
}

// TestChaosANNRunsUnderFaults drives full ANN executions — serial and
// parallel — over a faulty store. Runs either succeed or fail with a
// classified error; pins are released either way.
func TestChaosANNRunsUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := clusteredPoints(rng, 5000, 2, 100)
	// 8 frames: small enough that the ~25-page tree keeps missing, large
	// enough that four workers' concurrent pins never exhaust the pool.
	tree, pool, fs := buildChaosTree(t, pts, 8)
	if n := fs.NumPages(); n <= 8 {
		t.Fatalf("tree occupies only %d pages; pool would mask the store", n)
	}
	fs.SetConfig(storage.FaultConfig{Seed: 7, ReadErrProb: 0.01})

	for _, par := range []int{1, 4} {
		for run := 0; run < 12; run++ {
			opts := Options{
				K:              2,
				ExcludeSelf:    true,
				Parallelism:    par,
				NodeCacheBytes: NodeCacheDisabled,
			}
			results, _, err := CollectContext(context.Background(), tree, tree, opts)
			requireChaosErr(t, err)
			if err == nil && len(results) != len(pts) {
				t.Fatalf("parallelism=%d run %d: %d results, want %d", par, run, len(results), len(pts))
			}
			storage.RequireNoPinnedFrames(t, pool)
			if t.Failed() {
				t.Fatalf("parallelism=%d run %d leaked pins (err=%v)", par, run, err)
			}
		}
	}
	if st := pool.Stats(); st.Retries == 0 {
		t.Fatal("no retries recorded despite 1% read fault rate")
	}
}

// TestChaosCorruptPageSurfaces flips one bit of an on-store page and
// checks that a fresh pool (no resident frames masking the damage)
// reports ErrCorruptPage rather than wrong answers or a panic — and
// that flipping the same bit back fully restores the tree.
func TestChaosCorruptPageSurfaces(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := clusteredPoints(rng, 500, 2, 100)
	tree, _, fs := buildChaosTree(t, pts, 64)

	// Damage a payload byte on every page in turn until a query trips
	// over one of them (the meta page is read at Open, tree pages during
	// traversal).
	const bit = 8*(storage.PageHeaderSize+100) + 3
	n := fs.NumPages()
	for pid := storage.PageID(0); pid < storage.PageID(n); pid++ {
		if err := fs.FlipBit(pid, bit); err != nil {
			t.Fatal(err)
		}
	}
	pool2 := storage.NewBufferPoolWithConfig(fs, 64, chaosPoolConfig)
	tree2, err := mbrqt.Open(pool2, tree.MetaPage())
	if err == nil {
		_, err = index.NearestNeighbors(tree2, geom.Point{50, 50}, 1)
	}
	if !storage.IsCorrupt(err) {
		t.Fatalf("corrupted store: err = %v, want ErrCorruptPage", err)
	}
	storage.RequireNoPinnedFrames(t, pool2)

	// Flip the same bits back: the store is byte-identical again and a
	// fresh pool must serve correct answers.
	for pid := storage.PageID(0); pid < storage.PageID(n); pid++ {
		if err := fs.FlipBit(pid, bit); err != nil {
			t.Fatal(err)
		}
	}
	pool3 := storage.NewBufferPoolWithConfig(fs, 64, chaosPoolConfig)
	tree3, err := mbrqt.Open(pool3, tree.MetaPage())
	if err != nil {
		t.Fatalf("restored store failed to open: %v", err)
	}
	res, err := index.NearestNeighbors(tree3, pts[0], 1)
	if err != nil {
		t.Fatalf("restored store failed to query: %v", err)
	}
	if len(res) != 1 || res[0].DistSq != 0 {
		t.Fatalf("restored store returned wrong answer: %+v", res)
	}
}
