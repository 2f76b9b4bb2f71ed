package ann

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/geom"
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

// TestJoin holds Join and JoinAll to an exhaustive scan: ANN and AkNN,
// across two indexes and as a self-join, over both index kinds, serial
// and parallel. excludeSelf over two distinct indexes skips, for each r
// point, the s point of its own id: here that is its twin, a copy
// displaced by 1e-3 and so its nearest neighbor. Join streams the rows
// JoinAll collects.
func TestJoin(t *testing.T) {
	r := randomPoints(1, 200, 2)
	s := randomPoints(2, 250, 2)
	var twins []Point
	for _, p := range r {
		twins = append(twins, Point{p[0] + 1e-3, p[1]})
	}
	twins = append(twins, s[:50]...)
	for _, tc := range []struct {
		name        string
		kind        IndexKind
		s           []Point // nil: a self-join over r's index
		k, par      int
		excludeSelf bool
	}{
		{name: "ann-mbrqt", kind: MBRQT, s: s, k: 1},
		{name: "ann-rstar", kind: RStar, s: s, k: 1},
		{name: "aknn", kind: MBRQT, s: s, k: 2},
		{name: "self-ann", kind: MBRQT, k: 1, excludeSelf: true},
		{name: "self-aknn-rstar", kind: RStar, k: 4, excludeSelf: true},
		{name: "exclude-self-distinct/serial", kind: MBRQT, s: twins, k: 3, par: 1, excludeSelf: true},
		{name: "exclude-self-distinct/par4", kind: MBRQT, s: twins, k: 3, par: 4, excludeSelf: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ir, err := BuildIndex(r, IndexConfig{Kind: tc.kind})
			if err != nil {
				t.Fatal(err)
			}
			defer ir.Close()
			is, sPts := ir, r
			if tc.s != nil {
				if is, err = BuildIndex(tc.s, IndexConfig{Kind: tc.kind}); err != nil {
					t.Fatal(err)
				}
				defer is.Close()
				sPts = tc.s
			}
			cfg := QueryConfig{Parallelism: tc.par}
			got, err := JoinAll(context.Background(), ir, is, tc.k, tc.excludeSelf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var streamed []Result
			if err := Join(context.Background(), ir, is, tc.k, tc.excludeSelf, cfg, func(res Result) error {
				streamed = append(streamed, res)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(streamed, got) {
				t.Fatal("Join streamed other rows than JoinAll collected")
			}
			want := bruteforce.AkNN(bruteforce.FromPoints(geomPoints(r)), bruteforce.FromPoints(geomPoints(sPts)), tc.k, tc.excludeSelf)
			if len(got) != len(want) {
				t.Fatalf("got %d rows, want %d", len(got), len(want))
			}
			sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
			for i, row := range got {
				if len(row.Neighbors) != len(want[i].Neighbors) {
					t.Fatalf("point %d: %d neighbors, want %d", i, len(row.Neighbors), len(want[i].Neighbors))
				}
				for n, nb := range row.Neighbors {
					w := want[i].Neighbors[n]
					if nb.ID != uint64(w.Object) || math.Abs(nb.Dist-w.Dist) > 1e-9 {
						t.Fatalf("point %d neighbor %d: id %d at %g, want id %d at %g", i, n, nb.ID, nb.Dist, w.Object, w.Dist)
					}
				}
			}
		})
	}
}

// geomPoints views points as the engine's point type.
func geomPoints(pts []Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

func TestAllKNearestNeighborsBothMetrics(t *testing.T) {
	r := randomPoints(3, 120, 3)
	s := randomPoints(4, 200, 3)
	const k = 4
	want := bruteNN(r, s, k, false)
	ir, _ := BuildIndex(r, IndexConfig{})
	is, _ := BuildIndex(s, IndexConfig{})
	results, err := JoinAll(context.Background(), ir, is, k, false, QueryConfig{})
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

// TestParallelismConfig pins the public contract of the Parallelism
// knob: the default (parallel) run matches the forced-serial run
// exactly, in the same order.
func TestParallelismConfig(t *testing.T) {
	pts := randomPoints(20, 1500, 2)
	for _, kind := range []IndexKind{MBRQT, RStar} {
		ix, err := BuildIndex(pts, IndexConfig{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		serial, err := JoinAll(context.Background(), ix, ix, 2, true, QueryConfig{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		deflt, err := JoinAll(context.Background(), ix, ix, 2, true, QueryConfig{})
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
	}
}

// TestInvalidK: a k below 1, a negative join distance and a probe or
// index of the wrong dimensionality are rejected on the direct path with
// ErrInvalidConfig, the type the served paths answer BAD_REQUEST for.
func TestInvalidK(t *testing.T) {
	ctx := context.Background()
	ix, err := BuildIndex(randomPoints(8, 10, 2), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ix3, err := BuildIndex(randomPoints(8, 10, 3), IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	none := func(ObjectID, ObjectID, float64) error { return nil }
	for name, call := range map[string]func() error{
		"join 2-D × 3-D":   func() error { _, err := JoinAll(ctx, ix, ix3, 1, false, QueryConfig{}); return err },
		"within 2-D × 3-D": func() error { return WithinDistanceContext(ctx, ix3, ix, 1, false, none) },
		"within d=-1":      func() error { return WithinDistanceContext(ctx, ix, ix, -1, true, none) },
		"closest pairs 2-D × 3-D": func() error {
			_, err := ClosestPairsContext(ctx, ix, ix3, 1, false)
			return err
		},
		"join k=0": func() error {
			_, err := JoinAll(ctx, ix, ix, 0, false, QueryConfig{})
			return err
		},
		"self-join k=0": func() error {
			return Join(ctx, ix, ix, 0, true, QueryConfig{}, func(Result) error { return nil })
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
	res, err := JoinAll(context.Background(), ix, ix, 1, true, QueryConfig{})
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
