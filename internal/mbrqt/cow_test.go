package mbrqt

import (
	"math/rand"
	"testing"

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
