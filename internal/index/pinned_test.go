package index_test

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// TestPointQueryAnswersPinned holds the point verbs to the answers of the
// Expand-based loops they replaced, byte for byte: ids in output order and
// distance bits, over tie-heavy and duplicate-heavy data where any change
// to the order of heap operations would show. The hashes were recorded by
// running this test at the last commit with the old loops. The number of
// pool accesses the probe set makes is held the same way, recorded at the
// commit before the scan kernels: a kernel that admitted or pushed one
// slot differently would visit a different set of nodes.
func TestPointQueryAnswersPinned(t *testing.T) {
	pinned := map[string]uint64{
		"mbrqt": 0xfd1d950261df8fed,
		"rstar": 0x67d9b2eafb7ab959,
	}
	pinnedAccesses := map[string]uint64{"mbrqt": 1082, "rstar": 559}
	rng := rand.New(rand.NewSource(16))
	pts := append(lattice(5000, 2), uniform(rng, 3000, 2)...)
	queries := append(uniform(rng, 40, 2), pts[7], pts[8], pts[4000])
	for _, kind := range []string{"mbrqt", "rstar"} {
		pool := storage.NewBufferPool(storage.NewMemStore(), 1<<12)
		tree := newTree(t, kind, pool, pts)
		pool.ResetStats()
		h := fnv.New64a()
		put := func(v uint64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
		for _, q := range queries {
			for _, k := range []int{1, 4, 10, 50} {
				res, err := index.NearestNeighbors(tree, q, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					put(uint64(r.Object))
					put(math.Float64bits(r.DistSq))
				}
			}
			res, err := index.RangeSearch(tree, geom.Rect{Lo: geom.Point{q[0] - 4, q[1] - 4}, Hi: geom.Point{q[0] + 4, q[1] + 4}})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				put(uint64(r.Object))
				put(math.Float64bits(r.Point[0]))
			}
		}
		if got := h.Sum64(); got != pinned[kind] {
			t.Errorf("%s: answers hash to %#x, pinned %#x", kind, got, pinned[kind])
		}
		if st := pool.Stats(); st.Hits+st.Misses != pinnedAccesses[kind] {
			t.Errorf("%s: the probes made %d pool accesses, pinned %d", kind, st.Hits+st.Misses, pinnedAccesses[kind])
		}
	}
}
