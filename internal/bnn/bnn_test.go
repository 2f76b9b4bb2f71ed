package bnn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/core"
	"allnn/internal/geom"
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

type runner func(r Dataset, is *rstar.Tree, opts Options) ([]core.Result, error)

func runMNN(r Dataset, is *rstar.Tree, opts Options) ([]core.Result, error) {
	var out []core.Result
	_, err := MNN(r, is, opts, func(res core.Result) error {
		out = append(out, res)
		return nil
	})
	return out, err
}

func runBNN(r Dataset, is *rstar.Tree, opts Options) ([]core.Result, error) {
	var out []core.Result
	_, err := BNN(r, is, opts, func(res core.Result) error {
		out = append(out, res)
		return nil
	})
	return out, err
}

func checkAgainstBrute(t *testing.T, run runner, rPts, sPts []geom.Point, opts Options) {
	t.Helper()
	is, err := rstar.BulkLoad(newPool(2048), sPts, nil, rstar.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(FromPoints(rPts), is, opts)
	if err != nil {
		t.Fatal(err)
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
}

func TestMNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rPts := uniformPoints(rng, 200, 2, 100)
	sPts := uniformPoints(rng, 300, 2, 100)
	for _, k := range []int{1, 4} {
		checkAgainstBrute(t, runMNN, rPts, sPts, Options{K: k})
	}
}

func TestBNNMatchesBruteBothMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rPts := uniformPoints(rng, 300, 2, 100)
	sPts := uniformPoints(rng, 300, 2, 100)
	for _, metric := range []core.Metric{core.NXNDist, core.MaxMaxDist} {
		for _, k := range []int{1, 3, 10} {
			checkAgainstBrute(t, runBNN, rPts, sPts, Options{K: k, Metric: metric})
		}
	}
}

func TestBNNGroupSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rPts := uniformPoints(rng, 250, 3, 50)
	sPts := uniformPoints(rng, 250, 3, 50)
	for _, gs := range []int{1, 7, 64, 1000} {
		checkAgainstBrute(t, runBNN, rPts, sPts, Options{GroupSize: gs})
	}
}

func TestBNNSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := uniformPoints(rng, 300, 2, 100)
	checkAgainstBrute(t, runBNN, pts, pts, Options{K: 2, ExcludeSelf: true})
	checkAgainstBrute(t, runMNN, pts, pts, Options{K: 2, ExcludeSelf: true})
}

func TestBNNHighDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rPts := uniformPoints(rng, 120, 10, 1)
	sPts := uniformPoints(rng, 150, 10, 1)
	checkAgainstBrute(t, runBNN, rPts, sPts, Options{K: 3})
}

func TestBNNTinyInputs(t *testing.T) {
	checkAgainstBrute(t, runBNN, []geom.Point{{1, 2}}, []geom.Point{{3, 4}}, Options{})
	checkAgainstBrute(t, runBNN, []geom.Point{{1, 2}, {5, 5}}, []geom.Point{{3, 4}}, Options{K: 5})
}

func TestValidateRejectsMismatch(t *testing.T) {
	is, err := rstar.BulkLoad(newPool(64), []geom.Point{{1, 1, 1}}, nil, rstar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runBNN(FromPoints([]geom.Point{{1, 2}}), is, Options{}); err == nil {
		t.Fatal("expected dimensionality error")
	}
	bad := Dataset{IDs: nil, Points: []geom.Point{{1, 1, 1}}}
	if _, err := BNN(bad, is, Options{}, func(core.Result) error { return nil }); err == nil {
		t.Fatal("expected id/point mismatch error")
	}
}

func TestBNNDoesLessWorkThanMNN(t *testing.T) {
	// Batching is the whole point: BNN must visit far fewer index nodes
	// than per-point MNN on a clustered workload.
	rng := rand.New(rand.NewSource(6))
	rPts := uniformPoints(rng, 1000, 2, 100)
	sPts := uniformPoints(rng, 1000, 2, 100)
	is, err := rstar.BulkLoad(newPool(2048), sPts, nil, rstar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mnnStats, err := MNN(FromPoints(rPts), is, Options{}, func(core.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	bnnStats, err := BNN(FromPoints(rPts), is, Options{}, func(core.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MNN nodes=%d, BNN nodes=%d", mnnStats.NodesVisited, bnnStats.NodesVisited)
	if bnnStats.Groups >= mnnStats.Groups {
		t.Errorf("BNN groups %d not below MNN per-point count %d", bnnStats.Groups, mnnStats.Groups)
	}
}

func TestBNNNXNDistTighterThanMaxMax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rPts := uniformPoints(rng, 1500, 2, 1000)
	sPts := uniformPoints(rng, 1500, 2, 1000)
	is, err := rstar.BulkLoad(newPool(2048), sPts, nil, rstar.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nxn, err := BNN(FromPoints(rPts), is, Options{Metric: core.NXNDist}, func(core.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	mm, err := BNN(FromPoints(rPts), is, Options{Metric: core.MaxMaxDist}, func(core.Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("NXNDIST dist calcs=%d, MAXMAX dist calcs=%d", nxn.DistanceCalcs, mm.DistanceCalcs)
	if nxn.DistanceCalcs > mm.DistanceCalcs {
		t.Errorf("NXNDIST did more distance calcs (%d) than MAXMAXDIST (%d)",
			nxn.DistanceCalcs, mm.DistanceCalcs)
	}
}
