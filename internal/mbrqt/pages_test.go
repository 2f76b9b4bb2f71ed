package mbrqt

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

var writePagehash = flag.Bool("write-pagehash", false,
	"rewrite testdata/pagehash from the pinned sets' bulk loads")

// loadPages bulk-loads s into a fresh in-memory store, flushes the pool
// and returns every page's bytes in page order.
func loadPages(t testing.TB, s pinnedSet) [][]byte {
	t.Helper()
	store := storage.NewMemStore()
	pool := storage.NewBufferPool(store, 64)
	if _, err := BulkLoad(pool, s.pts, s.ids, Config{}); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, store.NumPages())
	for id := range out {
		out[id] = make([]byte, storage.PageSize)
		if err := store.ReadPage(storage.PageID(id), out[id]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// pageHashes returns the hex SHA-256 of every page of s's bulk load.
func pageHashes(t testing.TB, s pinnedSet) []string {
	t.Helper()
	pages := loadPages(t, s)
	out := make([]string, len(pages))
	for id, page := range pages {
		sum := sha256.Sum256(page)
		out[id] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestBulkLoadPageFilePinned holds the bulk load to the page file it
// writes: every page of each pinned set must hash to the digest checked
// in beside the test. A change that moves records on purpose regenerates
// the digests with -write-pagehash (`make pagehash`).
func TestBulkLoadPageFilePinned(t *testing.T) {
	for _, s := range pinnedSets() {
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join("testdata", "pagehash", s.name+".sha256")
			got := pageHashes(t, s)
			if *writePagehash {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			f, err := os.Open(path)
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

// TestBulkLoadSeparatesInternalRecords holds the bulk load's two page
// classes: no page of a pinned set holds both a leaf record and an
// internal one.
func TestBulkLoadSeparatesInternalRecords(t *testing.T) {
	for _, s := range pinnedSets() {
		t.Run(s.name, func(t *testing.T) {
			mixed, inner := 0, 0
			for _, page := range loadPages(t, s)[1:] { // page 0 is the meta page
				var kinds [3]int
				for slot := 0; slot < pageNumSlots(page); slot++ {
					if slotLength(page, slot) > 0 {
						kinds[page[slotOffset(page, slot)]]++
					}
				}
				if kinds[nodeTypeInternal] > 0 {
					inner++
					if kinds[nodeTypeLeaf] > 0 {
						mixed++
					}
				}
			}
			if mixed > 0 {
				t.Fatalf("%d of %d pages with internal records also hold leaf records", mixed, inner)
			}
		})
	}
}

// TestBulkLoadPlanDeterministic holds the bulk load's page file to the
// serial one when every split above one object may plan its subtrees on
// goroutines, at GOMAXPROCS 1, 2 and 4: the pinned sets page by page, and
// a TAC-like 200 K load hashed whole.
func TestBulkLoadPlanDeterministic(t *testing.T) {
	sets := append(pinnedSets(), pinnedSet{name: "tac2d_200k", pts: datagen.TACSurrogate(1, 200_000)})
	defer func(n, procs int) {
		planSpawnMin = n
		runtime.GOMAXPROCS(procs)
	}(planSpawnMin, runtime.GOMAXPROCS(0))
	for _, s := range sets {
		planSpawnMin = math.MaxInt
		serial := loadPages(t, s)
		planSpawnMin = 1
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := loadPages(t, s)
			if len(got) != len(serial) {
				t.Fatalf("%s, GOMAXPROCS %d: %d pages, serial %d", s.name, procs, len(got), len(serial))
			}
			for id := range got {
				if !slices.Equal(got[id], serial[id]) {
					t.Fatalf("%s, GOMAXPROCS %d: page %d differs from the serial load", s.name, procs, id)
				}
			}
		}
	}
}
