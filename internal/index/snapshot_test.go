package index_test

import (
	"math/rand"
	"sync"
	"testing"

	"allnn/internal/index"
	"allnn/internal/mbrqt"
)

// TestSnapshotIsolationReleaseOnReaders runs a tree the way the ann
// layer does, for the race detector: a writer commits batches while a
// reader pins the snapshot each batch supersedes, scans it through
// index.RangeSearch on its own goroutine, releases its pin there — which
// retires what the next batch freed once every older reader is done —
// and scrapes the gauges; the writer drains and checkpoints beside them.
// A snapshot must scan to exactly the size it froze. MBRQT is the tree
// kind that is written after build.
func TestSnapshotIsolationReleaseOnReaders(t *testing.T) {
	t.Run("mbrqt", func(t *testing.T) {
		const n, batch, batches = 2000, 40, 50
		pts := uniform(rand.New(rand.NewSource(5)), n, 2)
		tree := newTree(t, "mbrqt", newPool(t, "mem"), pts).(*mbrqt.Tree)
		tree.Publish()
		var readers sync.WaitGroup
		for b := 0; b < batches; b++ {
			snap, err := tree.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			readers.Add(1)
			go func() {
				defer readers.Done()
				res, err := index.RangeSearch(snap, snap.Bounds())
				if err != nil || len(res) != snap.Len() {
					t.Errorf("snapshot of %d points scanned to %d: %v", snap.Len(), len(res), err)
				}
				snap.Release()
				tree.PageGauges()
			}()
			for i := b * batch; i < (b+1)*batch; i++ {
				if ok, err := tree.Delete(index.ObjectID(i), pts[i]); err != nil || !ok {
					t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
				}
			}
			// Re-inserting half keeps every point inside the quadtree's
			// root cell and lets the snapshots differ in size.
			for i := b * batch; i < (b+1)*batch; i += 2 {
				if err := tree.Insert(index.ObjectID(n+i), pts[i]); err != nil {
					t.Fatal(err)
				}
			}
			tree.Publish()
			if err := tree.DrainReclaim(); err != nil {
				t.Fatal(err)
			}
			if b%5 == 4 {
				if err := tree.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		readers.Wait()
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	})
}
