package rstar

import (
	"math/rand"
	"testing"

	"allnn/internal/index/indextest"
)

// TestSnapshotIsolationUnderWrites runs the shared copy-on-write
// conformance with batches heavy enough to trigger splits, reinsertion
// and underflow merges.
func TestSnapshotIsolationUnderWrites(t *testing.T) {
	tree, err := New(newPool(256), 2, Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts := clusteredPoints(rand.New(rand.NewSource(9)), 150+24*40, 2, 1)
	indextest.SnapshotIsolation(t, tree, pts, 150, 40, 24)
}
