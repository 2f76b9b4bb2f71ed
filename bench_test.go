// Package allnn's root benchmark suite: one testing.B benchmark per table
// and figure of the paper's evaluation (Section 4), plus ablations of the
// design choices DESIGN.md calls out. These run at a reduced cardinality
// (BenchScale of the paper's 500K-700K) so that `go test -bench=.`
// completes in minutes; the cmd/annbench harness runs the same
// experiments at arbitrary scale and prints the paper-style tables.
package allnn_test

import (
	"context"
	"path/filepath"
	"testing"

	"allnn/internal/bench"
	"allnn/internal/bnn"
	"allnn/internal/core"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/gorder"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/paperref"
	"allnn/internal/rstar"
	"allnn/internal/storage"
)

// benchN is the dataset cardinality used by the benchmarks (the paper's
// datasets hold 500K-700K points; benchmarks run a scaled-down slice so
// the full -bench=. sweep stays tractable).
const benchN = 8000

// poolBytes is the paper's buffer pool size.
const poolBytes = 512 * 1024

// buildSelf builds a flushed index over pts and reopens it through a
// fresh pool of the paper's size; the same tree serves as I_R and I_S
// (self-join), as in the TAC/FC experiments.
func buildSelf(b *testing.B, kind bench.IndexKind, pts []geom.Point) (index.Tree, *storage.BufferPool) {
	b.Helper()
	return buildOn(b, kind, pts, storage.NewMemStore(), storage.FramesForBytes(poolBytes))
}

// buildOn bulk-loads an index over pts into store, flushes it, and reopens
// it through a fresh pool of the given number of frames.
func buildOn(b *testing.B, kind bench.IndexKind, pts []geom.Point, store storage.Store, frames int) (index.Tree, *storage.BufferPool) {
	b.Helper()
	buildPool := storage.NewBufferPool(store, 1<<14)
	var meta storage.PageID
	switch kind {
	case bench.KindRStar:
		t, err := rstar.BulkLoad(buildPool, pts, nil, rstar.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Flush(); err != nil {
			b.Fatal(err)
		}
		meta = t.MetaPage()
	default:
		t, err := mbrqt.BulkLoad(buildPool, pts, nil, mbrqt.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Flush(); err != nil {
			b.Fatal(err)
		}
		meta = t.MetaPage()
	}
	pool := storage.NewBufferPool(store, frames)
	var tree index.Tree
	var err error
	if kind == bench.KindRStar {
		tree, err = rstar.Open(pool, meta)
	} else {
		tree, err = mbrqt.Open(pool, meta)
	}
	if err != nil {
		b.Fatal(err)
	}
	return tree, pool
}

func runEngine(b *testing.B, tree index.Tree, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunContext(context.Background(), tree, tree, opts, func(core.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func runGorder(b *testing.B, pts []geom.Point, opts gorder.Options) {
	b.Helper()
	ds := gorder.FromPoints(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := storage.NewBufferPool(storage.NewMemStore(), storage.FramesForBytes(poolBytes))
		if _, err := gorder.Join(ds, ds, pool, opts, func(core.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2: dataset generation ----------------------------------------------

func BenchmarkTable2DatasetTAC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = datagen.TACSurrogate(1, benchN)
	}
}

func BenchmarkTable2DatasetFC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = datagen.FCSurrogate(1, benchN)
	}
}

func BenchmarkTable2DatasetSynthetic6D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = datagen.Synthetic500K(1, benchN, 6)
	}
}

// --- Figure 3(a): ANN on TAC across algorithms and metrics --------------------

func fig3aPoints() []geom.Point { return datagen.TACSurrogate(1, benchN) }

func BenchmarkFig3aMBA_NXNDist(b *testing.B) {
	tree, _ := buildSelf(b, bench.KindMBRQT, fig3aPoints())
	runEngine(b, tree, core.Options{Metric: core.NXNDist, ExcludeSelf: true})
}

func BenchmarkFig3aMBA_MaxMaxDist(b *testing.B) {
	tree, _ := buildSelf(b, bench.KindMBRQT, fig3aPoints())
	runEngine(b, tree, core.Options{Metric: core.MaxMaxDist, ExcludeSelf: true})
}

func BenchmarkFig3aRBA_NXNDist(b *testing.B) {
	tree, _ := buildSelf(b, bench.KindRStar, fig3aPoints())
	runEngine(b, tree, core.Options{Metric: core.NXNDist, ExcludeSelf: true})
}

func BenchmarkFig3aRBA_MaxMaxDist(b *testing.B) {
	tree, _ := buildSelf(b, bench.KindRStar, fig3aPoints())
	runEngine(b, tree, core.Options{Metric: core.MaxMaxDist, ExcludeSelf: true})
}

func BenchmarkFig3aBNN_NXNDist(b *testing.B)    { benchBNN(b, core.NXNDist) }
func BenchmarkFig3aBNN_MaxMaxDist(b *testing.B) { benchBNN(b, core.MaxMaxDist) }

func benchBNN(b *testing.B, metric core.Metric) {
	pts := fig3aPoints()
	tree, _ := buildSelf(b, bench.KindRStar, pts)
	ds := bnn.FromPoints(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bnn.BNN(ds, tree, bnn.Options{Metric: metric, ExcludeSelf: true},
			func(core.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3aGORDER(b *testing.B) {
	runGorder(b, fig3aPoints(), gorder.Options{ExcludeSelf: true})
}

// --- Figure 3(b): ANN on FC across buffer pool sizes --------------------------

func benchFig3bMBA(b *testing.B, pool int) {
	pts := datagen.FCSurrogate(1, benchN)
	store := storage.NewMemStore()
	buildPool := storage.NewBufferPool(store, 1<<14)
	t, err := mbrqt.BulkLoad(buildPool, pts, nil, mbrqt.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := t.Flush(); err != nil {
		b.Fatal(err)
	}
	qp := storage.NewBufferPool(store, storage.FramesForBytes(pool))
	tree, err := mbrqt.Open(qp, t.MetaPage())
	if err != nil {
		b.Fatal(err)
	}
	runEngine(b, tree, core.Options{ExcludeSelf: true})
}

func BenchmarkFig3bMBA_Pool512KB(b *testing.B) { benchFig3bMBA(b, 512<<10) }
func BenchmarkFig3bMBA_Pool8MB(b *testing.B)   { benchFig3bMBA(b, 8<<20) }

func benchFig3bGORDER(b *testing.B, pool int) {
	pts := datagen.FCSurrogate(1, benchN)
	ds := gorder.FromPoints(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := storage.NewBufferPool(storage.NewMemStore(), storage.FramesForBytes(pool))
		if _, err := gorder.Join(ds, ds, bp, gorder.Options{ExcludeSelf: true},
			func(core.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3bGORDER_Pool512KB(b *testing.B) { benchFig3bGORDER(b, 512<<10) }
func BenchmarkFig3bGORDER_Pool8MB(b *testing.B)   { benchFig3bGORDER(b, 8<<20) }

// --- Figure 4: effect of dimensionality ---------------------------------------

func benchFig4MBA(b *testing.B, dim int) {
	tree, _ := buildSelf(b, bench.KindMBRQT, datagen.Synthetic500K(1, benchN, dim))
	runEngine(b, tree, core.Options{ExcludeSelf: true})
}

func BenchmarkFig4MBA_2D(b *testing.B) { benchFig4MBA(b, 2) }
func BenchmarkFig4MBA_4D(b *testing.B) { benchFig4MBA(b, 4) }
func BenchmarkFig4MBA_6D(b *testing.B) { benchFig4MBA(b, 6) }

func benchFig4GORDER(b *testing.B, dim int) {
	runGorder(b, datagen.Synthetic500K(1, benchN, dim), gorder.Options{ExcludeSelf: true})
}

func BenchmarkFig4GORDER_2D(b *testing.B) { benchFig4GORDER(b, 2) }
func BenchmarkFig4GORDER_4D(b *testing.B) { benchFig4GORDER(b, 4) }
func BenchmarkFig4GORDER_6D(b *testing.B) { benchFig4GORDER(b, 6) }

// --- Figures 5 and 6: AkNN on TAC and FC --------------------------------------

func benchAkNNMBA(b *testing.B, pts []geom.Point, k int) {
	tree, _ := buildSelf(b, bench.KindMBRQT, pts)
	runEngine(b, tree, core.Options{K: k, ExcludeSelf: true})
}

func BenchmarkFig5MBA_TAC_k10(b *testing.B) { benchAkNNMBA(b, datagen.TACSurrogate(1, benchN), 10) }
func BenchmarkFig5MBA_TAC_k50(b *testing.B) { benchAkNNMBA(b, datagen.TACSurrogate(1, benchN), 50) }

func BenchmarkFig5GORDER_TAC_k10(b *testing.B) {
	runGorder(b, datagen.TACSurrogate(1, benchN), gorder.Options{K: 10, ExcludeSelf: true})
}

func BenchmarkFig6MBA_FC_k10(b *testing.B) { benchAkNNMBA(b, datagen.FCSurrogate(1, benchN), 10) }
func BenchmarkFig6MBA_FC_k50(b *testing.B) { benchAkNNMBA(b, datagen.FCSurrogate(1, benchN), 50) }

func BenchmarkFig6GORDER_FC_k10(b *testing.B) {
	runGorder(b, datagen.FCSurrogate(1, benchN), gorder.Options{K: 10, ExcludeSelf: true})
}

// --- Ablations -----------------------------------------------------------------

// BenchmarkAblatePaperLiteral runs the paper's algorithm as printed
// (internal/paperref) on the Figure 3(a) workload, beside
// BenchmarkFig3aMBA_NXNDist's default engine.
func BenchmarkAblatePaperLiteral(b *testing.B) {
	tree, _ := buildSelf(b, bench.KindMBRQT, fig3aPoints())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paperref.Run(tree, tree, 1, true, core.NXNDist, func(core.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblateMNNBaseline(b *testing.B) {
	pts := fig3aPoints()
	tree, _ := buildSelf(b, bench.KindRStar, pts)
	ds := bnn.FromPoints(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bnn.MNN(ds, tree, bnn.Options{ExcludeSelf: true},
			func(core.Result) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Decoded-node cache ---------------------------------------------------------

// benchExpand measures one node expansion through the public index
// interface, with no decoded-node cache (every call decodes the page) or,
// for MBRQT, which alone has one, a warm one (every call returns the
// shared cached slice). The warm case must stay allocation-free.
func benchExpand(b *testing.B, kind bench.IndexKind, warm bool) {
	tree, _ := buildSelf(b, kind, fig3aPoints())
	if warm {
		tree.(index.NodeCacher).SetNodeCache(index.NewNodeCache(0))
	}
	root, err := tree.Root()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tree.Expand(&root); err != nil { // warms the cache when attached
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Expand(&root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpandMBRQT_NoCache(b *testing.B)   { benchExpand(b, bench.KindMBRQT, false) }
func BenchmarkExpandMBRQT_WarmCache(b *testing.B) { benchExpand(b, bench.KindMBRQT, true) }
func BenchmarkExpandRStar_NoCache(b *testing.B)   { benchExpand(b, bench.KindRStar, false) }

// benchCollectCache measures the end-to-end self-ANN join under the
// paper's 512 KB pool with the given node-cache budget; one untimed
// warm-up run first, so the cache-on variant reports the steady state.
func benchCollectCache(b *testing.B, budget int64) {
	tree, _ := buildSelf(b, bench.KindMBRQT, fig3aPoints())
	opts := core.Options{ExcludeSelf: true, NodeCacheBytes: budget}
	if _, _, err := core.CollectContext(context.Background(), tree, tree, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.CollectContext(context.Background(), tree, tree, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectANN_CacheOff(b *testing.B)  { benchCollectCache(b, core.NodeCacheDisabled) }
func BenchmarkCollectANN_CacheWarm(b *testing.B) { benchCollectCache(b, 0) }

// --- Point queries ----------------------------------------------------------------

// pointN is the cardinality of the point-query benchmarks: the served
// workloads' 200K, so the tree has their height and leaf fill.
const pointN = 200_000

// buildPoint indexes pts with the given kind: "mem" keeps the pages in
// memory under a pool that holds them all, "file64" puts them in a page
// file behind 64 frames, so most node visits miss the pool.
func buildPoint(b *testing.B, kind bench.IndexKind, backing string, pts []geom.Point) index.Tree {
	b.Helper()
	if backing == "mem" {
		tree, _ := buildOn(b, kind, pts, storage.NewMemStore(), 1<<14)
		return tree
	}
	fs, err := storage.NewFileStore(filepath.Join(b.TempDir(), "pages"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fs.Close() })
	tree, _ := buildOn(b, kind, pts, fs, 64)
	return tree
}

// forEachPointIndex runs one sub-benchmark per tree kind and backing over
// an index of pts, named <kind>/<backing><suffix>.
func forEachPointIndex(b *testing.B, suffix string, pts []geom.Point, backings []string, run func(b *testing.B, tree index.Tree)) {
	for _, ix := range []struct {
		name string
		kind bench.IndexKind
	}{{"mbrqt", bench.KindMBRQT}, {"rstar", bench.KindRStar}} {
		for _, backing := range backings {
			b.Run(ix.name+"/"+backing+suffix, func(b *testing.B) {
				tree := buildPoint(b, ix.kind, backing, pts)
				b.ReportAllocs()
				b.ResetTimer()
				run(b, tree)
			})
		}
	}
}

var pointBackings = []string{"mem", "file64"}

// BenchmarkPointKNN is one k = 10 probe at a data point, the unit of the
// served mix, of the MNN baseline and of the router's join fix-up — alone
// and as one of a batch of 64 (the served BatchKNN; ns/op is per probe
// there too) over the TAC-like 2-D 200K, and alone over the FC-like 10-D
// 40K, where the leaf scan abandons most points part-way.
func BenchmarkPointKNN(b *testing.B) {
	single := func(pts []geom.Point) func(b *testing.B, tree index.Tree) {
		return func(b *testing.B, tree index.Tree) {
			for i := 0; i < b.N; i++ {
				if _, err := index.NearestNeighbors(tree, pts[(i*7919)%len(pts)], 10); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	tac := datagen.TACSurrogate(1, pointN)
	forEachPointIndex(b, "", tac, pointBackings, single(tac))
	forEachPointIndex(b, "-batch64", tac, pointBackings, func(b *testing.B, tree index.Tree) {
		qs := make([][]float64, 64)
		for i := 0; i < b.N; i += len(qs) {
			for j := range qs {
				qs[j] = tac[((i+j)*7919)%len(tac)]
			}
			if _, err := index.BatchNearestNeighbors(tree, qs, 10, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	fc := datagen.FCSurrogate(1, 40_000)
	forEachPointIndex(b, "-fc10", fc, []string{"mem"}, single(fc))
}

// BenchmarkRangeSearch is one box query of 1% of the extent per side
// around a data point.
func BenchmarkRangeSearch(b *testing.B) {
	pts := datagen.TACSurrogate(1, pointN)
	forEachPointIndex(b, "", pts, pointBackings, func(b *testing.B, tree index.Tree) {
		bounds := tree.Bounds()
		for i := 0; i < b.N; i++ {
			c := pts[(i*7919)%len(pts)]
			lo, hi := c.Clone(), c.Clone()
			for d := range c {
				half := (bounds.Hi[d] - bounds.Lo[d]) / 200
				lo[d], hi[d] = c[d]-half, c[d]+half
			}
			if _, err := index.RangeSearch(tree, geom.Rect{Lo: lo, Hi: hi}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Index micro-benchmarks -----------------------------------------------------

func BenchmarkIndexBuildMBRQT(b *testing.B) {
	pts := fig3aPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := storage.NewBufferPool(storage.NewMemStore(), 1<<14)
		if _, err := mbrqt.BulkLoad(pool, pts, nil, mbrqt.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexBuildRStarSTR(b *testing.B) {
	pts := fig3aPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := storage.NewBufferPool(storage.NewMemStore(), 1<<14)
		if _, err := rstar.BulkLoad(pool, pts, nil, rstar.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
