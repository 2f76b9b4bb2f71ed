package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
)

// collectWith runs the engine and materialises results without sorting.
func collectWith(t *testing.T, ir, is index.Tree, opts Options) ([]Result, Stats) {
	t.Helper()
	got, stats, err := CollectContext(context.Background(), ir, is, opts)
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func sortByObject(rs []Result) {
	sort.Slice(rs, func(a, b int) bool { return rs[a].ID < rs[b].ID })
}

// normalizeCacheCounters folds the node-cache hit/miss split into a single
// lookup total. The split depends on cache warmth (a second run over the
// same tree hits where the first missed), but the total number of lookups
// is a pure function of the traversal and must be identical between
// equivalent runs.
func normalizeCacheCounters(s Stats) Stats {
	s.NodeCacheHits += s.NodeCacheMisses
	s.NodeCacheMisses = 0
	return s
}

// TestParallelMatchesSerial is the equivalence matrix the parallel
// executor must satisfy: for random datasets across both index kinds,
// both metrics, k in {1, 4} and Parallelism in {2, 8}, the parallel run
// must produce exactly the serial engine's results — identical order in
// ordered mode, identical set (after sorting by query id) in unordered
// mode — and identical work counters.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rPts := clusteredPoints(rng, 900, 2, 100)
	sPts := uniformPoints(rng, 700, 2, 100)
	builders := []struct {
		name  string
		build func(testing.TB, []geom.Point) index.Tree
	}{
		{"mbrqt", buildMBRQT},
		{"rstar", buildRStar},
	}
	for _, b := range builders {
		ir := b.build(t, rPts)
		is := b.build(t, sPts)
		for _, metric := range []Metric{NXNDist, MaxMaxDist} {
			for _, k := range []int{1, 4} {
				serialOpts := Options{K: k, Metric: metric}
				want, wantStats := collectWith(t, ir, is, serialOpts)
				for _, par := range []int{2, 8} {
					for _, ordered := range []bool{true, false} {
						name := fmt.Sprintf("%s/%s/k=%d/p=%d/ordered=%v",
							b.name, metric, k, par, ordered)
						t.Run(name, func(t *testing.T) {
							opts := serialOpts
							opts.Parallelism = par
							opts.OrderedEmit = ordered
							got, gotStats := collectWith(t, ir, is, opts)
							if !ordered {
								g := append([]Result(nil), got...)
								w := append([]Result(nil), want...)
								sortByObject(g)
								sortByObject(w)
								got, want := g, w
								if !reflect.DeepEqual(got, want) {
									t.Fatal("unordered parallel result set differs from serial")
								}
							} else if !reflect.DeepEqual(got, want) {
								t.Fatal("ordered parallel results differ from serial (order or content)")
							}
							if normalizeCacheCounters(gotStats) != normalizeCacheCounters(wantStats) {
								t.Fatalf("parallel stats %+v differ from serial %+v", gotStats, wantStats)
							}
						})
					}
				}
			}
		}
	}
}

// TestParallelSelfJoinExcludeSelf covers the self-AkNN form (same tree on
// both sides, ExcludeSelf) under parallel execution.
func TestParallelSelfJoinExcludeSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := clusteredPoints(rng, 800, 2, 50)
	for _, build := range []func(testing.TB, []geom.Point) index.Tree{buildMBRQT, buildRStar} {
		tree := build(t, pts)
		for _, k := range []int{1, 3} {
			serial := Options{K: k, ExcludeSelf: true}
			want, wantStats := collectWith(t, tree, tree, serial)
			par := serial
			par.Parallelism = 4
			par.OrderedEmit = true
			got, gotStats := collectWith(t, tree, tree, par)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: parallel self-join differs from serial", k)
			}
			if normalizeCacheCounters(gotStats) != normalizeCacheCounters(wantStats) {
				t.Fatalf("k=%d: stats %+v != %+v", k, gotStats, wantStats)
			}
		}
	}
}

// TestParallelHigherDim sanity-checks a non-2D dataset through the
// parallel path (the frontier and drain logic are dimension-generic but
// exercise different fanouts).
func TestParallelHigherDim(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rPts := uniformPoints(rng, 500, 4, 10)
	sPts := uniformPoints(rng, 500, 4, 10)
	ir, is := buildMBRQT(t, rPts), buildMBRQT(t, sPts)
	want, _ := collectWith(t, ir, is, Options{K: 2})
	got, _ := collectWith(t, ir, is, Options{K: 2, Parallelism: 6, OrderedEmit: true})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("4-D parallel results differ from serial")
	}
}

// TestParallelEmitError verifies that an error returned by the emit
// callback aborts a parallel run and propagates to the caller, that the
// callback is not invoked again, and that the producers stop at their
// next leaf, not their next task: after the failing row each worker joins
// at most the one leaf it had already passed the stop check for.
func TestParallelEmitError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := uniformPoints(rng, 20000, 2, 100)
	tree := buildMBRQT(t, pts)
	sentinel := errors.New("stop here")
	const workers, leafRowsMax = 4, 16 // buildMBRQT's bucket capacity
	for _, ordered := range []bool{true, false} {
		ir := &leafRows{Tree: tree}
		seen, failedAt := 0, int64(-1)
		_, err := RunContext(context.Background(), ir, tree, Options{Parallelism: workers, OrderedEmit: ordered, ExcludeSelf: true},
			func(Result) error {
				if failedAt >= 0 {
					t.Errorf("ordered=%v: emit called again after it failed", ordered)
				}
				seen++
				if seen > 10 {
					failedAt = ir.rows.Load()
					return sentinel
				}
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("ordered=%v: err = %v, want sentinel", ordered, err)
		}
		if after := ir.rows.Load() - failedAt; after > workers*leafRowsMax {
			t.Fatalf("ordered=%v: %d rows produced after the failing one, want at most %d (one leaf per worker)",
				ordered, after, workers*leafRowsMax)
		}
	}
}

// TestParallelTinyDataset exercises frontiers smaller than the worker
// count (single leaf, single object).
func TestParallelTinyDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5} {
		pts := uniformPoints(rng, n, 2, 10)
		tree := buildMBRQT(t, pts)
		want, _ := collectWith(t, tree, tree, Options{})
		got, _ := collectWith(t, tree, tree, Options{Parallelism: 8, OrderedEmit: true})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: parallel results differ from serial", n)
		}
	}
}
