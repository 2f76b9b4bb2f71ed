package hnn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/core"
	"allnn/internal/geom"
	"allnn/internal/storage"
)

const tol = 1e-9

func newPool(frames int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewMemStore(), frames)
}

func uniformPoints(rng *rand.Rand, n, dim int, lim float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * lim
		}
		pts[i] = p
	}
	return pts
}

func checkAgainstBrute(t *testing.T, rPts, sPts []geom.Point, opts Options) Stats {
	t.Helper()
	pool := newPool(1024)
	var got []core.Result
	stats, err := Join(FromPoints(rPts), FromPoints(sPts), pool, opts, func(r core.Result) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pool.PinnedFrames() != 0 {
		t.Fatal("pinned frame leak")
	}
	k := opts.K
	if k <= 0 {
		k = 1
	}
	want := bruteforce.AkNN(bruteforce.FromPoints(rPts), bruteforce.FromPoints(sPts), k, opts.ExcludeSelf)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != uint64(w.Object) {
			t.Fatalf("result %d for object %d, want %d", i, g.ID, w.Object)
		}
		if len(g.Neighbors) != len(w.Neighbors) {
			t.Fatalf("object %d: %d neighbors, want %d", g.ID, len(g.Neighbors), len(w.Neighbors))
		}
		for n := range w.Neighbors {
			if math.Abs(g.Neighbors[n].Dist-w.Neighbors[n].Dist) > tol {
				t.Fatalf("object %d neighbor %d: dist %g, want %g",
					g.ID, n, g.Neighbors[n].Dist, w.Neighbors[n].Dist)
			}
		}
	}
	return stats
}

func TestJoinMatchesBrute2D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rPts := uniformPoints(rng, 300, 2, 100)
	sPts := uniformPoints(rng, 400, 2, 100)
	for _, k := range []int{1, 5} {
		checkAgainstBrute(t, rPts, sPts, Options{K: k})
	}
}

func TestJoinMatchesBrute3D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rPts := uniformPoints(rng, 200, 3, 50)
	sPts := uniformPoints(rng, 250, 3, 50)
	checkAgainstBrute(t, rPts, sPts, Options{K: 3})
}

func TestJoinSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := uniformPoints(rng, 300, 2, 100)
	checkAgainstBrute(t, pts, pts, Options{K: 2, ExcludeSelf: true})
}

func TestJoinSkewedData(t *testing.T) {
	// The known weakness: a dense cluster in one cell. Results must still
	// be exact.
	rng := rand.New(rand.NewSource(4))
	var pts []geom.Point
	for i := 0; i < 300; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 0.01, rng.Float64() * 0.01})
	}
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 100, rng.Float64() * 100})
	}
	checkAgainstBrute(t, pts, pts, Options{ExcludeSelf: true})
}

func TestJoinTinyInputs(t *testing.T) {
	checkAgainstBrute(t, []geom.Point{{1, 1}}, []geom.Point{{2, 2}}, Options{})
	checkAgainstBrute(t, []geom.Point{{1, 1}}, []geom.Point{{2, 2}, {3, 3}}, Options{K: 5})
	// Identical coordinates everywhere (degenerate bounds).
	same := []geom.Point{{5, 5}, {5, 5}, {5, 5}}
	checkAgainstBrute(t, same, same, Options{ExcludeSelf: true})
}

func TestJoinEmpty(t *testing.T) {
	pool := newPool(16)
	var results int
	_, err := Join(FromPoints(nil), FromPoints([]geom.Point{{1, 1}}), pool, Options{},
		func(core.Result) error { results++; return nil })
	if err != nil || results != 0 {
		t.Fatalf("empty R: %v results=%d", err, results)
	}
	_, err = Join(FromPoints([]geom.Point{{1, 1}}), FromPoints(nil), pool, Options{},
		func(core.Result) error { results++; return nil })
	if err != nil || results != 1 {
		t.Fatalf("empty S: %v results=%d", err, results)
	}
}

func TestJoinDimMismatch(t *testing.T) {
	pool := newPool(16)
	_, err := Join(FromPoints([]geom.Point{{1, 2}}), FromPoints([]geom.Point{{1, 2, 3}}), pool,
		Options{}, func(core.Result) error { return nil })
	if err == nil {
		t.Fatal("expected dimensionality error")
	}
}

func TestRingEnumeration(t *testing.T) {
	g := &grid{bounds: geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), cells: 8, dim: 2}
	counts := map[int]int{}
	for ring := 0; ring < 4; ring++ {
		n := 0
		err := g.forEachRingCell([]int{4, 4}, ring, func(cell []int) error {
			// Every visited cell must be at exactly Chebyshev distance ring.
			d := 0
			for i, v := range cell {
				home := []int{4, 4}[i]
				if diff := v - home; diff > d {
					d = diff
				} else if -diff > d {
					d = -diff
				}
			}
			if d != ring {
				t.Fatalf("cell %v at Chebyshev %d visited for ring %d", cell, d, ring)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		counts[ring] = n
	}
	// Interior home cell: ring 0 has 1 cell, ring r has 8r cells.
	if counts[0] != 1 || counts[1] != 8 || counts[2] != 16 || counts[3] != 24 {
		t.Fatalf("ring cell counts = %v", counts)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := uniformPoints(rng, 500, 2, 100)
	stats := checkAgainstBrute(t, pts, pts, Options{ExcludeSelf: true})
	if stats.Cells < 1 || stats.BucketsSpilled == 0 || stats.BucketReads == 0 || stats.DistCalcs == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}
