package mbrqt

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// pinnedSet is one bulk load whose page file is pinned by
// testdata/pagehash/<name>.sha256: the SHA-256 of every page, in page
// order, one hex digest a line.
type pinnedSet struct {
	name string
	pts  []geom.Point
	ids  []index.ObjectID // nil: ids 0..n-1
}

func pinnedSets() []pinnedSet {
	// 30-D, 2 000 points over 40 distinct values: every value's run
	// descends to DefaultMaxDepth and overflows its leaf into a chain.
	rng := rand.New(rand.NewSource(30))
	distinct := uniformPoints(rng, 40, MaxDim, 100)
	dups := make([]geom.Point, 2000)
	for i := range dups {
		dups[i] = distinct[rng.Intn(len(distinct))].Clone()
	}
	withIDs := datagen.Uniform(7, 3000, datagen.UnitBounds(2))
	ids := make([]index.ObjectID, len(withIDs))
	for i := range ids {
		ids[i] = index.ObjectID(1_000_000 + 7*(len(ids)-i))
	}
	return []pinnedSet{
		{name: "tac2d_20k", pts: datagen.TACSurrogate(1, 20_000)},
		{name: "fc10d_5k", pts: datagen.FCSurrogate(1, 5_000)},
		{name: "dup30d_2k", pts: dups},
		{name: "ids2d_3k", pts: withIDs, ids: ids},
	}
}

// pageHashes bulk-loads s into a fresh in-memory store, flushes the pool
// and returns the hex SHA-256 of every page in page order.
func pageHashes(t testing.TB, s pinnedSet) []string {
	t.Helper()
	store := storage.NewMemStore()
	pool := storage.NewBufferPool(store, 64)
	if _, err := BulkLoad(pool, s.pts, s.ids, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	out := make([]string, store.NumPages())
	for id := range out {
		if err := store.ReadPage(storage.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf)
		out[id] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestBulkLoadPageFilePinned holds the bulk load to the page file it has
// always written: every page of each pinned set must hash to the digest
// checked in beside the test.
func TestBulkLoadPageFilePinned(t *testing.T) {
	for _, s := range pinnedSets() {
		t.Run(s.name, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", "pagehash", s.name+".sha256"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var want []string
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				want = append(want, sc.Text())
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			got := pageHashes(t, s)
			if len(got) != len(want) {
				t.Fatalf("%d pages, pinned %d", len(got), len(want))
			}
			for id := range got {
				if got[id] != want[id] {
					t.Fatalf("page %d hashes to %s, pinned %s", id, got[id], want[id])
				}
			}
		})
	}
}
