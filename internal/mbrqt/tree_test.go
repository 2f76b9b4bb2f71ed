package mbrqt

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

func unitSpace(dim int) geom.Rect {
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := range hi {
		hi[d] = 1
	}
	return geom.NewRect(lo, hi)
}

func TestNewRejectsBadDim(t *testing.T) {
	pool := newPool(16)
	if _, err := New(pool, geom.Rect{}, Config{}); err == nil {
		t.Error("expected error for 0-dim space")
	}
	lo := make(geom.Point, MaxDim+1)
	hi := make(geom.Point, MaxDim+1)
	for i := range hi {
		hi[i] = 1
	}
	if _, err := New(pool, geom.NewRect(lo, hi), Config{}); err == nil {
		t.Error("expected error for dim > MaxDim")
	}
}

func TestInsertAndLen(t *testing.T) {
	pool := newPool(64)
	tree, err := New(pool, unitSpace(2), Config{BucketCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := uniformPoints(rng, 100, 2, 1)
	for i, p := range pts {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tree.Len())
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if tree.Height() < 2 {
		t.Fatalf("height = %d; tree with bucket cap 4 and 100 points must have split", tree.Height())
	}
}

func TestInsertOutsideSpaceFails(t *testing.T) {
	pool := newPool(16)
	tree, err := New(pool, unitSpace(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(0, geom.Point{2, 0.5}); err == nil {
		t.Fatal("expected error for point outside space")
	}
	if err := tree.Insert(0, geom.Point{0.5}); err == nil {
		t.Fatal("expected error for wrong dimensionality")
	}
}

func TestRangeSearchMatchesLinearScan(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 6} {
		rng := rand.New(rand.NewSource(int64(dim)))
		pool := newPool(256)
		pts := uniformPoints(rng, 500, dim, 100)
		tree, err := BulkLoad(pool, pts, nil, Config{BucketCapacity: 16})
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
				t.Fatalf("dim %d: range search found %d, scan %d", dim, len(gotIDs), len(want))
			}
			for i := range want {
				if gotIDs[i] != want[i] {
					t.Fatalf("dim %d: result mismatch at %d: %d vs %d", dim, i, gotIDs[i], want[i])
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
	for _, dim := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(dim) * 7))
		pool := newPool(256)
		pts := uniformPoints(rng, 400, dim, 10)
		tree, err := BulkLoad(pool, pts, nil, Config{BucketCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 25; iter++ {
			q := make(geom.Point, dim)
			for d := range q {
				q[d] = rng.Float64() * 10
			}
			for _, k := range []int{1, 3, 10} {
				got, err := index.NearestNeighbors(tree, q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteKNN(pts, q, k)
				if len(got) != len(want) {
					t.Fatalf("kNN returned %d results, want %d", len(got), len(want))
				}
				for i := range got {
					// Compare distances (ties may reorder ids).
					if gd, wd := geom.DistSq(q, got[i].Point), want[i]; gd != wd {
						t.Fatalf("dim %d k %d: result %d dist %g, want %g", dim, k, i, gd, wd)
					}
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

func TestBulkLoadMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := uniformPoints(rng, 300, 2, 50)

	poolA := newPool(256)
	bulk, err := BulkLoad(poolA, pts, nil, Config{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	poolB := newPool(256)
	incr, err := New(poolB, bulk.Space(), Config{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := incr.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	for _, tree := range []*Tree{bulk, incr} {
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
	// Both trees must answer queries identically.
	for iter := 0; iter < 10; iter++ {
		q := randQueryRect(rng, 2, 50)
		a, err := index.RangeSearch(bulk, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := index.RangeSearch(incr, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("bulk found %d, incremental %d", len(a), len(b))
		}
	}
	if bulk.Len() != incr.Len() {
		t.Fatalf("sizes differ: %d vs %d", bulk.Len(), incr.Len())
	}
}

func TestDuplicatePointsOverflowChain(t *testing.T) {
	// Insert many coincident points: the tree cannot separate them, so it
	// must stop at MaxDepth and chain overflow pages instead of looping.
	pool := newPool(256)
	tree, err := New(pool, unitSpace(2), Config{BucketCapacity: 4, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{0.3, 0.3}
	for i := 0; i < 100; i++ {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tree.Len())
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	res, err := index.RangeSearch(tree, geom.PointRect(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 100 {
		t.Fatalf("found %d duplicates, want 100", len(res))
	}
}

func TestExpandRootAndChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pool := newPool(256)
	pts := uniformPoints(rng, 200, 2, 1)
	tree, err := BulkLoad(pool, pts, nil, Config{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.IsObject() || int(root.Count) != 200 {
		t.Fatalf("root entry = %+v", root)
	}
	entries, err := tree.Expand(&root)
	if err != nil {
		t.Fatal(err)
	}
	var total uint32
	for _, e := range entries {
		if e.IsObject() {
			total++
			continue
		}
		total += e.Count
		if !root.MBR.ContainsRect(e.MBR) {
			t.Fatalf("child MBR %v escapes root MBR %v", e.MBR, root.MBR)
		}
	}
	if total != 200 {
		t.Fatalf("children count to %d, want 200", total)
	}
	if _, err := tree.Expand(&index.Entry{Kind: index.ObjectEntry}); err == nil {
		t.Fatal("Expand of an object entry must fail")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	pool := newPool(16)
	tree, err := New(pool, unitSpace(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := index.RangeSearch(tree, unitSpace(2)); err != nil || len(res) != 0 {
		t.Fatalf("range on empty tree: %v, %v", res, err)
	}
	if res, err := index.NearestNeighbors(tree, geom.Point{0.5, 0.5}, 3); err != nil || len(res) != 0 {
		t.Fatalf("kNN on empty tree: %v, %v", res, err)
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	store := storage.NewMemStore()
	pool := storage.NewBufferPool(store, 128)
	rng := rand.New(rand.NewSource(12))
	pts := uniformPoints(rng, 250, 3, 10)
	tree, err := BulkLoad(pool, pts, nil, Config{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	meta := tree.MetaPage()

	// Reopen through a brand-new pool over the same store.
	pool2 := storage.NewBufferPool(store, 128)
	reopened, err := Open(pool2, meta)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 250 || reopened.Dim() != 3 {
		t.Fatalf("reopened: len=%d dim=%d", reopened.Len(), reopened.Dim())
	}
	if err := reopened.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	res, err := index.NearestNeighbors(reopened, pts[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].DistSq != 0 {
		t.Fatalf("NN of an indexed point should be itself: %+v", res)
	}
}

func TestOpenRejectsNonHeaderPage(t *testing.T) {
	pool := newPool(16)
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

func TestHighDimensionalTree(t *testing.T) {
	// 10-D data forces multi-page internal nodes (1024 possible quadrants).
	rng := rand.New(rand.NewSource(10))
	pool := newPool(1024)
	pts := uniformPoints(rng, 2000, 10, 1)
	tree, err := BulkLoad(pool, pts, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Root should have more children than fit a single page for 10-D.
	root, _ := tree.Root()
	entries, err := tree.Expand(&root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) <= 1 {
		t.Fatalf("10-D root has %d children", len(entries))
	}
	got, err := index.NearestNeighbors(tree, pts[42], 5)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(pts, pts[42], 5)
	for i := range got {
		if geom.DistSq(pts[42], got[i].Point) != want[i] {
			t.Fatalf("10-D kNN mismatch at %d", i)
		}
	}
}

func TestStatsReport(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := newPool(256)
	pts := uniformPoints(rng, 300, 2, 1)
	tree, err := BulkLoad(pool, pts, nil, Config{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	r, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if r.Points != 300 {
		t.Fatalf("stats points = %d, want 300", r.Points)
	}
	if r.Leaves == 0 || r.Internal == 0 || r.Nodes != r.Leaves+r.Internal {
		t.Fatalf("inconsistent node counts: %+v", r)
	}
	if r.MaxDepth != tree.Height() {
		t.Fatalf("stats depth %d != height %d", r.MaxDepth, tree.Height())
	}
}

func TestSmallBufferPoolStillWorks(t *testing.T) {
	// The tree must function with the paper's tiny 64-frame pool even
	// while building; evictions must not corrupt structure.
	rng := rand.New(rand.NewSource(77))
	pool := newPool(2)
	tree, err := New(pool, unitSpace(2), Config{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	pts := uniformPoints(rng, 3000, 2, 1)
	for i, p := range pts {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if pool.PinnedFrames() != 0 {
		t.Fatalf("%d frames still pinned after operations", pool.PinnedFrames())
	}
	if st := pool.Stats(); st.Misses == 0 {
		t.Fatal("a 2-frame pool over this workload must miss")
	}
}

// TestPageBoundsCoverTheirNodes checks RefPage and PageBounds on a bulk
// load: every
// node's MBR lies inside the bounds of the page its record is on, a page
// that holds a record has bounds, and the meta page has none.
func TestPageBoundsCoverTheirNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := newPool(256)
	tree, err := BulkLoad(pool, uniformPoints(rng, 3000, 2, 1), nil, Config{BucketCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	bounds := func(page storage.PageID) (geom.Rect, bool) {
		f, err := pool.Get(page)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		return tree.PageBounds(f.Data())
	}
	if _, ok := bounds(tree.MetaPage()); ok {
		t.Error("the meta page has bounds")
	}
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	nodes := []index.Entry{root}
	for len(nodes) > 0 {
		e := nodes[len(nodes)-1]
		nodes = nodes[:len(nodes)-1]
		r, ok := bounds(tree.RefPage(e.Child))
		if !ok || !r.ContainsRect(e.MBR) {
			t.Fatalf("node %v with MBR %v lies on a page bounded by %v (ok %v)", e.Child, e.MBR, r, ok)
		}
		children, err := tree.Expand(&e)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range children {
			if !c.IsObject() {
				nodes = append(nodes, c)
			}
		}
	}
}
