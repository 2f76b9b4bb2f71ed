package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

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

func clusteredPoints(rng *rand.Rand, n, dim int, lim float64) []geom.Point {
	// Gaussian clusters stress ChooseSubtree and the split heuristics more
	// than uniform data.
	const clusters = 8
	centers := uniformPoints(rng, clusters, dim, lim)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()*lim/50
		}
		pts[i] = p
	}
	return pts
}

func TestNewRejectsBadDim(t *testing.T) {
	if _, err := New(newPool(8), 0, Config{}); err == nil {
		t.Fatal("expected error for 0-dim tree")
	}
}

func TestInsertSmall(t *testing.T) {
	pool := newPool(64)
	tree, err := New(pool, 2, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}, {7, 7}}
	for i, p := range pts {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if tree.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(pts))
	}
	if tree.Height() < 2 {
		t.Fatalf("tree with fanout 4 and 7 points must have split, height = %d", tree.Height())
	}
}

func TestInsertManyIntegrity(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, gen := range []func(*rand.Rand, int, int, float64) []geom.Point{uniformPoints, clusteredPoints} {
			rng := rand.New(rand.NewSource(int64(dim)))
			pool := newPool(512)
			tree, err := New(pool, dim, Config{MaxEntries: 8})
			if err != nil {
				t.Fatal(err)
			}
			pts := gen(rng, 600, dim, 100)
			for i, p := range pts {
				if err := tree.Insert(index.ObjectID(i), p); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			if tree.Len() != 600 {
				t.Fatalf("Len = %d, want 600", tree.Len())
			}
		}
	}
}

func TestForcedReinsertionRuns(t *testing.T) {
	// Inserting clustered points one by one into small nodes overflows
	// every level, so forced reinsertion runs; the tree must stay correct.
	rng := rand.New(rand.NewSource(5))
	pts := clusteredPoints(rng, 500, 2, 100)
	tree, err := New(newPool(512), 2, Config{MaxEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSearchMatchesLinearScan(t *testing.T) {
	for _, dim := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(dim) * 3))
		pool := newPool(512)
		pts := uniformPoints(rng, 500, dim, 100)
		tree, err := BulkLoad(pool, pts, nil, Config{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 20; iter++ {
			q := randQueryRect(rng, dim, 100)
			got, err := index.RangeSearch(tree, q)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for i, p := range pts {
				if q.Contains(p) {
					want = append(want, i)
				}
			}
			gotIDs := make([]int, len(got))
			for i, r := range got {
				gotIDs[i] = int(r.Object)
			}
			sort.Ints(gotIDs)
			if len(gotIDs) != len(want) {
				t.Fatalf("dim %d: range found %d, scan %d", dim, len(gotIDs), len(want))
			}
			for i := range want {
				if gotIDs[i] != want[i] {
					t.Fatalf("dim %d: mismatch at %d", dim, i)
				}
			}
		}
	}
}

func randQueryRect(rng *rand.Rand, dim int, lim float64) geom.Rect {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := 0; d < dim; d++ {
		a := rng.Float64() * lim
		b := rng.Float64() * lim
		if a > b {
			a, b = b, a
		}
		lo[d], hi[d] = a, b
	}
	return geom.NewRect(lo, hi)
}

func TestNearestNeighborsMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pool := newPool(512)
	pts := clusteredPoints(rng, 400, 3, 50)
	tree, err := BulkLoad(pool, pts, nil, Config{MaxEntries: 12})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 25; iter++ {
		q := geom.Point{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		for _, k := range []int{1, 5, 20} {
			got, err := index.NearestNeighbors(tree, q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteKNN(pts, q, k)
			if len(got) != len(want) {
				t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i].DistSq != want[i] {
					t.Fatalf("k=%d: result %d dist %g, want %g", k, i, got[i].DistSq, want[i])
				}
			}
		}
	}
}

func bruteKNN(pts []geom.Point, q geom.Point, k int) []float64 {
	d := make([]float64, len(pts))
	for i, p := range pts {
		d[i] = geom.DistSq(q, p)
	}
	sort.Float64s(d)
	if k > len(d) {
		k = len(d)
	}
	return d[:k]
}

func TestBulkLoadIntegrityAndBalance(t *testing.T) {
	for _, n := range []int{1, 5, 100, 2000} {
		rng := rand.New(rand.NewSource(int64(n)))
		pool := newPool(1024)
		pts := uniformPoints(rng, n, 2, 100)
		tree, err := BulkLoad(pool, pts, nil, Config{MaxEntries: 16})
		if err != nil {
			t.Fatal(err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tree.Len())
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkLoadThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pool := newPool(512)
	pts := uniformPoints(rng, 300, 2, 100)
	tree, err := BulkLoad(pool, pts, nil, Config{MaxEntries: 10})
	if err != nil {
		t.Fatal(err)
	}
	extra := uniformPoints(rng, 200, 2, 100)
	for i, p := range extra {
		if err := tree.Insert(index.ObjectID(1000+i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tree.Len())
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	store := storage.NewMemStore()
	pool := storage.NewBufferPool(store, 256)
	rng := rand.New(rand.NewSource(55))
	pts := uniformPoints(rng, 300, 2, 10)
	tree, err := BulkLoad(pool, pts, nil, Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	pool2 := storage.NewBufferPool(store, 256)
	reopened, err := Open(pool2, tree.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 300 || reopened.Dim() != 2 {
		t.Fatalf("reopened: len=%d dim=%d", reopened.Len(), reopened.Dim())
	}
	if err := reopened.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	res, err := index.NearestNeighbors(reopened, pts[7], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DistSq != 0 {
		t.Fatalf("NN of indexed point: %+v", res)
	}
}

func TestOpenRejectsNonHeaderPage(t *testing.T) {
	pool := newPool(8)
	f, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pid := f.ID()
	f.Release()
	if _, err := Open(pool, pid); err == nil {
		t.Fatal("expected error opening a zero page as a tree")
	}
}

func TestDuplicatePoints(t *testing.T) {
	pool := newPool(256)
	tree, err := New(pool, 2, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{1, 1}
	for i := 0; i < 50; i++ {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	res, err := index.RangeSearch(tree, geom.PointRect(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 50 {
		t.Fatalf("found %d duplicates, want 50", len(res))
	}
}

func TestHighDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	pool := newPool(1024)
	pts := uniformPoints(rng, 1000, 10, 1)
	tree, err := BulkLoad(pool, pts, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	got, err := index.NearestNeighbors(tree, pts[3], 4)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(pts, pts[3], 4)
	for i := range got {
		if got[i].DistSq != want[i] {
			t.Fatalf("10-D kNN mismatch at %d: %g vs %g", i, got[i].DistSq, want[i])
		}
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	pool := newPool(8)
	tree, err := New(pool, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := index.RangeSearch(tree, geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})); err != nil || len(res) != 0 {
		t.Fatalf("range on empty tree: %v %v", res, err)
	}
	if res, err := index.NearestNeighbors(tree, geom.Point{0, 0}, 3); err != nil || len(res) != 0 {
		t.Fatalf("kNN on empty tree: %v %v", res, err)
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestNoPinLeaks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pool := newPool(16)
	tree, err := New(pool, 2, Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range uniformPoints(rng, 400, 2, 100) {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := index.NearestNeighbors(tree, geom.Point{50, 50}, 10); err != nil {
		t.Fatal(err)
	}
	if pool.PinnedFrames() != 0 {
		t.Fatalf("%d frames still pinned", pool.PinnedFrames())
	}
}
