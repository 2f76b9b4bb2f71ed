package mbrqt

import (
	"math/rand"
	"testing"

	"allnn/internal/index"
	"allnn/internal/index/indextest"
)

// TestSnapshotIsolationUnderWrites runs the shared copy-on-write
// conformance over small buckets, so every batch splits and empties
// leaves.
func TestSnapshotIsolationUnderWrites(t *testing.T) {
	tree, err := New(newPool(256), unitSpace(2), Config{BucketCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	pts := uniformPoints(rand.New(rand.NewSource(9)), 120+24*16, 2, 1)
	indextest.SnapshotIsolation(t, tree, pts, 120, 16, 24)
}

// TestRebuildFreeAfterReopen churns a tree of small records — dozens to
// a page, so most pages are partly dead at any time — and reopens it
// once, at its first checkpoint, which forgets the free list and how many
// records of each page had already drained. RebuildFree finds both again:
// the store must end no larger than beside a tree that was never
// reopened, where a forgotten death count alone leaves every page that
// was partly dead at the reopen in the file for good.
func TestRebuildFreeAfterReopen(t *testing.T) {
	const n, churn, rounds = 600, 24, 120
	pts := uniformPoints(rand.New(rand.NewSource(11)), n+rounds*churn, 2, 1)
	run := func(reopen bool) int {
		pool := newPool(1024)
		tree, err := New(pool, unitSpace(2), Config{BucketCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tree.Insert(index.ObjectID(i), pts[i]); err != nil {
				t.Fatal(err)
			}
		}
		tree.EnableCoW()
		_, release := tree.Publish()
		for r := 0; r < rounds; r++ {
			for i := r * churn; i < (r+1)*churn; i++ {
				if ok, err := tree.Delete(index.ObjectID(i), pts[i]); err != nil || !ok {
					t.Fatalf("round %d: delete %d: ok=%v err=%v", r, i, ok, err)
				}
				if err := tree.Insert(index.ObjectID(n+i), pts[n+i]); err != nil {
					t.Fatal(err)
				}
			}
			release()
			_, release = tree.Publish()
			if err := tree.DrainReclaim(); err != nil {
				t.Fatal(err)
			}
			if r%10 != 9 {
				continue
			}
			release()
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			if reopen && r == 9 {
				if tree, err = Open(pool, tree.MetaPage()); err != nil {
					t.Fatal(err)
				}
				tree.EnableCoW()
				if err := tree.RebuildFree(); err != nil {
					t.Fatal(err)
				}
			}
			_, release = tree.Publish()
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		return pool.Store().NumPages()
	}
	stayed, reopened := run(false), run(true)
	t.Logf("store pages after %d rounds: %d never reopened, %d reopened after round 10", rounds, stayed, reopened)
	if reopened > stayed {
		t.Fatalf("the reopened tree's store grew to %d pages, the other's to %d", reopened, stayed)
	}
}
