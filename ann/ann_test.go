package ann

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

func randomPoints(seed int64, n, dim int) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

func bruteNN(r, s []Point, k int, excludeSelf bool) [][]float64 {
	out := make([][]float64, len(r))
	for i, p := range r {
		var ds []float64
		for j, q := range s {
			if excludeSelf && i == j {
				continue
			}
			var sum float64
			for d := range p {
				diff := p[d] - q[d]
				sum += diff * diff
			}
			ds = append(ds, math.Sqrt(sum))
		}
		sort.Float64s(ds)
		if k < len(ds) {
			ds = ds[:k]
		}
		out[i] = ds
	}
	return out
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := BuildIndex(nil, IndexConfig{}); err == nil {
		t.Error("expected error for empty dataset")
	}
	if _, err := BuildIndex([]Point{{1, 2}, {1, 2, 3}}, IndexConfig{}); err == nil {
		t.Error("expected error for ragged dataset")
	}
}

func TestAllNearestNeighborsBothKinds(t *testing.T) {
	r := randomPoints(1, 200, 2)
	s := randomPoints(2, 250, 2)
	want := bruteNN(r, s, 1, false)
	for _, kind := range []IndexKind{MBRQT, RStar} {
		ir, err := BuildIndex(r, IndexConfig{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		is, err := BuildIndex(s, IndexConfig{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		results, err := AllNearestNeighborsContext(context.Background(), ir, is, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(r) {
			t.Fatalf("%v: got %d results, want %d", kind, len(results), len(r))
		}
		sort.Slice(results, func(a, b int) bool { return results[a].ID < results[b].ID })
		for i, res := range results {
			if len(res.Neighbors) != 1 {
				t.Fatalf("%v: point %d has %d neighbors", kind, i, len(res.Neighbors))
			}
			if math.Abs(res.Neighbors[0].Dist-want[i][0]) > 1e-9 {
				t.Fatalf("%v: point %d NN dist %g, want %g", kind, i, res.Neighbors[0].Dist, want[i][0])
			}
		}
	}
}

func TestAllKNearestNeighborsBothMetrics(t *testing.T) {
	r := randomPoints(3, 120, 3)
	s := randomPoints(4, 200, 3)
	const k = 4
	want := bruteNN(r, s, k, false)
	ir, _ := BuildIndex(r, IndexConfig{})
	is, _ := BuildIndex(s, IndexConfig{})
	results, err := AllKNearestNeighborsContext(context.Background(), ir, is, k, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].ID < results[b].ID })
	for i, res := range results {
		for n := range res.Neighbors {
			if math.Abs(res.Neighbors[n].Dist-want[i][n]) > 1e-9 {
				t.Fatalf("point %d neighbor %d dist %g, want %g",
					i, n, res.Neighbors[n].Dist, want[i][n])
			}
		}
	}
}

func TestSelfJoin(t *testing.T) {
	pts := randomPoints(5, 150, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := SelfAllNearestNeighborsContext(context.Background(), ix, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteNN(pts, pts, 1, true)
	sort.Slice(results, func(a, b int) bool { return results[a].ID < results[b].ID })
	for i, res := range results {
		if res.Neighbors[0].ID == res.ID {
			t.Fatalf("point %d returned itself", i)
		}
		if math.Abs(res.Neighbors[0].Dist-want[i][0]) > 1e-9 {
			t.Fatalf("point %d self-join NN dist %g, want %g", i, res.Neighbors[0].Dist, want[i][0])
		}
	}
}

func TestStreamDeliversAll(t *testing.T) {
	r := randomPoints(6, 80, 2)
	s := randomPoints(7, 90, 2)
	ir, _ := BuildIndex(r, IndexConfig{})
	is, _ := BuildIndex(s, IndexConfig{})
	seen := map[uint64]bool{}
	err := StreamAllKNearestNeighborsContext(context.Background(), ir, is, 2, QueryConfig{}, func(res Result) error {
		seen[res.ID] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 80 {
		t.Fatalf("stream delivered %d results, want 80", len(seen))
	}
}

// TestParallelismConfig pins the public contract of the Parallelism and
// UnorderedEmit knobs: the default (parallel, ordered) run matches the
// forced-serial run exactly, and an unordered run yields the same result
// set modulo order.
func TestParallelismConfig(t *testing.T) {
	pts := randomPoints(20, 1500, 2)
	for _, kind := range []IndexKind{MBRQT, RStar} {
		ix, err := BuildIndex(pts, IndexConfig{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		serial, err := SelfAllKNearestNeighborsContext(context.Background(), ix, 2, QueryConfig{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		deflt, err := SelfAllKNearestNeighborsContext(context.Background(), ix, 2, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(deflt) != len(serial) {
			t.Fatalf("%v: default run returned %d results, serial %d", kind, len(deflt), len(serial))
		}
		for i := range serial {
			if deflt[i].ID != serial[i].ID {
				t.Fatalf("%v: ordered parallel emit order diverges at %d", kind, i)
			}
			for n := range serial[i].Neighbors {
				if deflt[i].Neighbors[n].ID != serial[i].Neighbors[n].ID ||
					deflt[i].Neighbors[n].Dist != serial[i].Neighbors[n].Dist {
					t.Fatalf("%v: neighbor mismatch for object %d", kind, serial[i].ID)
				}
			}
		}
		unordered, err := SelfAllKNearestNeighborsContext(context.Background(), ix, 2, QueryConfig{Parallelism: 4, UnorderedEmit: true})
		if err != nil {
			t.Fatal(err)
		}
		byID := append([]Result(nil), serial...)
		sort.Slice(byID, func(a, b int) bool { return byID[a].ID < byID[b].ID })
		sort.Slice(unordered, func(a, b int) bool { return unordered[a].ID < unordered[b].ID })
		for i := range byID {
			if unordered[i].ID != byID[i].ID ||
				unordered[i].Neighbors[0].Dist != byID[i].Neighbors[0].Dist {
				t.Fatalf("%v: unordered result set differs at object %d", kind, byID[i].ID)
			}
		}
	}
}

// TestInvalidK: a k below 1 and a probe of the wrong dimensionality are
// rejected on the direct path with ErrInvalidConfig, the type the served
// paths answer BAD_REQUEST for.
func TestInvalidK(t *testing.T) {
	ctx := context.Background()
	ix, err := BuildIndex(randomPoints(8, 10, 2), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"join k=0": func() error {
			_, err := AllKNearestNeighborsContext(ctx, ix, ix, 0, QueryConfig{})
			return err
		},
		"self-join k=0": func() error {
			return StreamSelfAllKNearestNeighborsContext(ctx, ix, 0, QueryConfig{}, func(Result) error { return nil })
		},
		"closest pairs k=0": func() error { _, err := ClosestPairsContext(ctx, ix, ix, 0, true); return err },
		"kNN k=0":           func() error { _, err := ix.NearestNeighbors(Point{1, 2}, 0); return err },
		"batch k=-1":        func() error { _, err := ix.BatchNearestNeighbors(ctx, []Point{{1, 2}}, -1); return err },
		"kNN 3-D probe":     func() error { _, err := ix.NearestNeighbors(Point{1, 2, 3}, 1); return err },
		"batch 3-D probe": func() error {
			_, err := ix.BatchNearestNeighbors(ctx, []Point{{1, 2}, {1, 2, 3}}, 1)
			return err
		},
	} {
		if err := call(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: %v, want ErrInvalidConfig", name, err)
		}
	}
}

func TestIndexQueries(t *testing.T) {
	pts := []Point{{0, 0}, {5, 5}, {10, 10}}
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 || ix.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", ix.Len(), ix.Dim())
	}
	nn, err := ix.NearestNeighbors(Point{6, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 2 || nn[0].ID != 1 {
		t.Fatalf("NearestNeighbors = %+v", nn)
	}
	ids, _, err := ix.RangeSearchWithPoints(Point{4, 4}, Point{11, 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("RangeSearchWithPoints found %d, want 2", len(ids))
	}
}

func TestFileBackedIndex(t *testing.T) {
	pts := randomPoints(9, 300, 2)
	path := filepath.Join(t.TempDir(), "index.pages")
	ix, err := BuildIndex(pts, IndexConfig{PageFile: path, BufferPoolBytes: 512 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	res, err := SelfAllNearestNeighborsContext(context.Background(), ix, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 300 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestWithinDistance(t *testing.T) {
	pts := randomPoints(11, 120, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const d = 8.0
	got := map[[2]uint64]bool{}
	err = WithinDistanceContext(context.Background(), ix, ix, d, true, func(r, s uint64, dist float64) error {
		if dist > d {
			t.Fatalf("pair (%d,%d) at dist %g beyond %g", r, s, dist, d)
		}
		got[[2]uint64{r, s}] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			var sum float64
			for k := range pts[i] {
				diff := pts[i][k] - pts[j][k]
				sum += diff * diff
			}
			if math.Sqrt(sum) <= d {
				want++
				if !got[[2]uint64{uint64(i), uint64(j)}] {
					t.Fatalf("missing pair (%d,%d)", i, j)
				}
			}
		}
	}
	if len(got) != want {
		t.Fatalf("join found %d pairs, want %d", len(got), want)
	}
}

func TestClosestPairs(t *testing.T) {
	pts := randomPoints(13, 100, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := ClosestPairsContext(context.Background(), ix, ix, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	// Brute-force the closest pair distance.
	best := math.Inf(1)
	for i := range pts {
		for j := range pts {
			if i == j {
				continue
			}
			var sum float64
			for d := range pts[i] {
				diff := pts[i][d] - pts[j][d]
				sum += diff * diff
			}
			if v := math.Sqrt(sum); v < best {
				best = v
			}
		}
	}
	if math.Abs(pairs[0].Dist-best) > 1e-9 {
		t.Fatalf("closest pair dist %g, want %g", pairs[0].Dist, best)
	}
	if !sort.SliceIsSorted(pairs, func(a, b int) bool { return pairs[a].Dist < pairs[b].Dist }) {
		t.Fatal("pairs not sorted")
	}
}
