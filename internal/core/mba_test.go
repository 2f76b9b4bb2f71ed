package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/rstar"
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

func clusteredPoints(rng *rand.Rand, n, dim int, lim float64) []geom.Point {
	const clusters = 6
	centers := uniformPoints(rng, clusters, dim, lim)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()*lim/40
		}
		pts[i] = p
	}
	return pts
}

// buildMBRQT / buildRStar build an index over pts in a fresh pool.
func buildMBRQT(t testing.TB, pts []geom.Point) index.Tree {
	t.Helper()
	tree, err := mbrqt.BulkLoad(newPool(4096), pts, nil, mbrqt.Config{BucketCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func buildRStar(t testing.TB, pts []geom.Point) index.Tree {
	t.Helper()
	tree, err := rstar.BulkLoad(newPool(4096), pts, nil, rstar.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// checkAgainstBrute runs the engine with opts and compares the neighbor
// distances of every query object against the brute-force reference.
func checkAgainstBrute(t *testing.T, ir, is index.Tree, rPts, sPts []geom.Point, opts Options) Stats {
	t.Helper()
	got, stats, err := CollectContext(context.Background(), ir, is, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := opts.K
	if k <= 0 {
		k = 1
	}
	want := bruteforce.AkNN(bruteforce.FromPoints(rPts), bruteforce.FromPoints(sPts), k, opts.ExcludeSelf)
	if len(got) != len(want) {
		t.Fatalf("engine returned %d results, want %d", len(got), len(want))
	}
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != uint64(w.Object) {
			t.Fatalf("result %d is for object %d, want %d", i, g.ID, w.Object)
		}
		if len(g.Neighbors) != len(w.Neighbors) {
			t.Fatalf("object %d has %d neighbors, want %d", g.ID, len(g.Neighbors), len(w.Neighbors))
		}
		for n := range w.Neighbors {
			// Distances must match exactly up to float tolerance (the ids
			// may differ under ties).
			if math.Abs(g.Neighbors[n].Dist-w.Neighbors[n].Dist) > tol {
				t.Fatalf("object %d neighbor %d dist %g, want %g",
					g.ID, n, g.Neighbors[n].Dist, w.Neighbors[n].Dist)
			}
		}
	}
	return stats
}

func TestANNBothIndexesBothMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	rPts := clusteredPoints(rng, 400, 2, 100)
	sPts := uniformPoints(rng, 300, 2, 100)
	builders := map[string]func(testing.TB, []geom.Point) index.Tree{
		"mbrqt": buildMBRQT,
		"rstar": buildRStar,
	}
	for name, build := range builders {
		for _, metric := range []Metric{NXNDist, MaxMaxDist} {
			t.Run(name+"/"+metric.String(), func(t *testing.T) {
				ir := build(t, rPts)
				is := build(t, sPts)
				checkAgainstBrute(t, ir, is, rPts, sPts, Options{Metric: metric})
			})
		}
	}
}

func TestANNMixedIndexes(t *testing.T) {
	// The engine must work with IR and IS of different index types.
	rng := rand.New(rand.NewSource(55))
	rPts := uniformPoints(rng, 200, 3, 50)
	sPts := clusteredPoints(rng, 250, 3, 50)
	ir := buildMBRQT(t, rPts)
	is := buildRStar(t, sPts)
	checkAgainstBrute(t, ir, is, rPts, sPts, Options{})
}

func TestAkNNVariousK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rPts := uniformPoints(rng, 150, 2, 100)
	sPts := clusteredPoints(rng, 400, 2, 100)
	ir := buildMBRQT(t, rPts)
	is := buildMBRQT(t, sPts)
	for _, k := range []int{1, 2, 5, 10, 50} {
		checkAgainstBrute(t, ir, is, rPts, sPts, Options{K: k})
	}
}

func TestAkNNLargerKThanDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	rPts := uniformPoints(rng, 30, 2, 10)
	sPts := uniformPoints(rng, 10, 2, 10)
	ir := buildMBRQT(t, rPts)
	is := buildMBRQT(t, sPts)
	checkAgainstBrute(t, ir, is, rPts, sPts, Options{K: 25})
}

func TestSelfJoinExcludeSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := clusteredPoints(rng, 300, 2, 100)
	for _, k := range []int{1, 5} {
		ir := buildMBRQT(t, pts)
		is := buildMBRQT(t, pts)
		stats := checkAgainstBrute(t, ir, is, pts, pts, Options{K: k, ExcludeSelf: true})
		if stats.Results != 300 {
			t.Fatalf("Results stat = %d, want 300", stats.Results)
		}
	}
}

func TestSelfJoinWithDuplicatePoints(t *testing.T) {
	// Duplicate coordinates: excluding "self" must still report the
	// coincident twin at distance zero.
	pts := []geom.Point{{1, 1}, {1, 1}, {5, 5}, {9, 9}}
	ir := buildMBRQT(t, pts)
	is := buildMBRQT(t, pts)
	got, _, err := CollectContext(context.Background(), ir, is, Options{ExcludeSelf: true})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	if got[0].Neighbors[0].Dist != 0 || got[1].Neighbors[0].Dist != 0 {
		t.Fatalf("coincident twins should be distance 0: %+v %+v", got[0], got[1])
	}
	if got[0].Neighbors[0].ID == 0 {
		t.Fatal("object 0 returned itself as neighbor")
	}
}

func TestHighDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	rPts := uniformPoints(rng, 150, 10, 1)
	sPts := uniformPoints(rng, 150, 10, 1)
	ir := buildMBRQT(t, rPts)
	is := buildMBRQT(t, sPts)
	checkAgainstBrute(t, ir, is, rPts, sPts, Options{K: 3})
}

func TestOneDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rPts := uniformPoints(rng, 100, 1, 1000)
	sPts := uniformPoints(rng, 80, 1, 1000)
	ir := buildRStar(t, rPts)
	is := buildRStar(t, sPts)
	checkAgainstBrute(t, ir, is, rPts, sPts, Options{})
}

func TestTinyDatasets(t *testing.T) {
	cases := [][2][]geom.Point{
		{{{1, 1}}, {{2, 2}}},
		{{{1, 1}, {3, 3}}, {{2, 2}}},
		{{{1, 1}}, {{2, 2}, {0, 0}, {5, 5}}},
	}
	for _, c := range cases {
		ir := buildMBRQT(t, c[0])
		is := buildMBRQT(t, c[1])
		checkAgainstBrute(t, ir, is, c[0], c[1], Options{})
	}
}

func TestDimensionalityMismatchFails(t *testing.T) {
	ir := buildMBRQT(t, []geom.Point{{1, 1}})
	is := buildMBRQT(t, []geom.Point{{1, 1, 1}})
	if _, _, err := CollectContext(context.Background(), ir, is, Options{}); err == nil {
		t.Fatal("expected error for mismatched dimensionality")
	}
}

func TestNXNDistPrunesMoreThanMaxMax(t *testing.T) {
	// The paper's headline claim at the work-counter level: with the same
	// indexes and workload, NXNDIST must do fewer distance computations
	// and enqueue fewer entries than MAXMAXDIST.
	rng := rand.New(rand.NewSource(2))
	pts := clusteredPoints(rng, 2000, 2, 1000)
	ir := buildMBRQT(t, pts)
	is := buildMBRQT(t, pts)
	_, nxn, err := CollectContext(context.Background(), ir, is, Options{Metric: NXNDist, ExcludeSelf: true})
	if err != nil {
		t.Fatal(err)
	}
	_, mm, err := CollectContext(context.Background(), ir, is, Options{Metric: MaxMaxDist, ExcludeSelf: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NXNDIST: dist=%d enq=%d; MAXMAX: dist=%d enq=%d",
		nxn.DistanceCalcs, nxn.Enqueued, mm.DistanceCalcs, mm.Enqueued)
	if nxn.DistanceCalcs >= mm.DistanceCalcs {
		t.Errorf("NXNDIST did %d distance calcs, MAXMAXDIST %d — expected strictly fewer",
			nxn.DistanceCalcs, mm.DistanceCalcs)
	}
	if nxn.Enqueued >= mm.Enqueued {
		t.Errorf("NXNDIST enqueued %d, MAXMAXDIST %d — expected strictly fewer",
			nxn.Enqueued, mm.Enqueued)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := uniformPoints(rng, 300, 2, 100)
	ir := buildMBRQT(t, pts)
	is := buildMBRQT(t, pts)
	_, stats, err := CollectContext(context.Background(), ir, is, Options{ExcludeSelf: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Results != 300 {
		t.Errorf("Results = %d, want 300", stats.Results)
	}
	if stats.DistanceCalcs == 0 || stats.LPQsCreated == 0 || stats.Enqueued == 0 {
		t.Errorf("work counters not populated: %+v", stats)
	}
	if stats.NodesExpandedR == 0 || stats.NodesExpandedS == 0 {
		t.Errorf("node expansion counters not populated: %+v", stats)
	}
}

func TestEmptyTargetIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rPts := uniformPoints(rng, 50, 2, 10)
	ir := buildMBRQT(t, rPts)
	pool := newPool(64)
	empty, err := mbrqt.New(pool, geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10}), mbrqt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := CollectContext(context.Background(), ir, empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("expected 50 empty results, got %d", len(got))
	}
	for _, r := range got {
		if len(r.Neighbors) != 0 {
			t.Fatalf("object %d has neighbors from an empty index", r.ID)
		}
	}
}

func TestEmptyQueryIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sPts := uniformPoints(rng, 50, 2, 10)
	is := buildMBRQT(t, sPts)
	pool := newPool(64)
	empty, err := mbrqt.New(pool, geom.NewRect(geom.Point{0, 0}, geom.Point{10, 10}), mbrqt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := CollectContext(context.Background(), empty, is, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no results, got %d", len(got))
	}
}

// TestShiftedExtents joins R ≠ S with S moved 90–300 along one axis of a
// 100-wide extent, so the two barely overlap or not at all and every query
// object's neighbors sit behind one face of S. A bound tightened at node
// level beyond the owner's true k-th distance starves the far owners there
// ("child LPQ starved"), which no self-join shows.
func TestShiftedExtents(t *testing.T) {
	builders := map[string]func(testing.TB, []geom.Point) index.Tree{"mbrqt": buildMBRQT, "rstar": buildRStar}
	for kind, build := range builders {
		for _, dim := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/%dd", kind, dim), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					rPts := uniformPoints(rng, 400, dim, 100)
					ir := build(t, rPts)
					for _, shift := range []float64{90, 110, 150, 200, 300} {
						sPts := uniformPoints(rng, 400, dim, 100)
						for _, p := range sPts {
							p[0] += shift
						}
						is := build(t, sPts)
						t.Run(fmt.Sprintf("seed=%d/shift=%g", seed, shift), func(t *testing.T) {
							for _, k := range []int{1, 4, 10} {
								checkAgainstBrute(t, ir, is, rPts, sPts, Options{K: k})
								checkAgainstBrute(t, ir, is, rPts, sPts, Options{K: k, Parallelism: 4, OrderedEmit: true})
							}
						})
					}
				}
			})
		}
	}
}

func TestRandomizedSweep(t *testing.T) {
	// Randomised cross-validation across sizes, dims, k, metrics, and
	// index combinations.
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 12; iter++ {
		dim := 1 + rng.Intn(4)
		nr := 1 + rng.Intn(150)
		ns := 1 + rng.Intn(150)
		k := 1 + rng.Intn(4)
		rPts := uniformPoints(rng, nr, dim, 100)
		sPts := clusteredPoints(rng, ns, dim, 100)
		var ir, is index.Tree
		if rng.Intn(2) == 0 {
			ir = buildMBRQT(t, rPts)
		} else {
			ir = buildRStar(t, rPts)
		}
		if rng.Intn(2) == 0 {
			is = buildMBRQT(t, sPts)
		} else {
			is = buildRStar(t, sPts)
		}
		metric := Metric(rng.Intn(2))
		checkAgainstBrute(t, ir, is, rPts, sPts, Options{K: k, Metric: metric})
	}
}
