package index_test

import (
	"math/rand"
	"sync"
	"testing"

	"allnn/internal/index"
	"allnn/internal/mbrqt"
)

// TestSnapshotIsolationReleaseOnReaders runs a tree the way the ann
// layer's version chain does, for the race detector: a writer commits
// batches while the reader of each superseded snapshot scans it through
// index.RangeSearch on its own goroutine, fires that batch's release there
// once every older reader is done, and scrapes the gauges; the writer
// drains and checkpoints beside them. A snapshot must scan to exactly the
// size it froze. MBRQT is the tree kind that is written after build.
func TestSnapshotIsolationReleaseOnReaders(t *testing.T) {
	t.Run("mbrqt", func(t *testing.T) {
		const n, batch, batches = 2000, 40, 50
		pts := uniform(rand.New(rand.NewSource(5)), n, 2)
		tree := newTree(t, "mbrqt", newPool(t, "mem"), pts).(*mbrqt.Tree)
		snap, release := tree.Publish()
		release()
		var readers sync.WaitGroup
		older := make(chan struct{})
		close(older)
		for b := 0; b < batches; b++ {
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
			next, rel := tree.Publish()
			done := make(chan struct{})
			readers.Add(1)
			go func(old *mbrqt.Snapshot, older, done chan struct{}) {
				defer readers.Done()
				res, err := index.RangeSearch(old, old.Bounds())
				if err != nil || len(res) != old.Len() {
					t.Errorf("snapshot of %d points scanned to %d: %v", old.Len(), len(res), err)
				}
				<-older
				rel()
				tree.PageGauges()
				close(done)
			}(snap, older, done)
			snap, older = next, done
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
