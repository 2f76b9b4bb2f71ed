package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
)

// benchBuilders pairs each index kind with its test builder so the
// benchmarks below cover MBA (MBRQT) and RBA (R*-tree) symmetrically.
var benchBuilders = []struct {
	name  string
	build func(testing.TB, []geom.Point) index.Tree
}{
	{"mbrqt", buildMBRQT},
	{"rstar", buildRStar},
}

// BenchmarkExpand measures a single node expansion with the decoded-node
// cache absent (every iteration decodes from the buffer pool) and, for
// MBRQT, which alone has one, warm (every iteration is served the shared
// cached slice). The warm case is the engine's steady state and must
// report 0 allocs/op.
func BenchmarkExpand(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	pts := uniformPoints(rng, 5000, 2, 100)
	for _, bb := range benchBuilders {
		tree := bb.build(b, pts)
		root, err := tree.Root()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bb.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Expand(&root); err != nil {
					b.Fatal(err)
				}
			}
		})
		nc, ok := tree.(index.NodeCacher)
		if !ok {
			continue
		}
		b.Run(bb.name+"/warm", func(b *testing.B) {
			nc.SetNodeCache(index.NewNodeCache(0))
			if _, err := tree.Expand(&root); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tree.Expand(&root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollect measures the end-to-end self-ANN join, cache off vs
// warm. Both cases run one untimed warm-up execution first, so the
// cache-on allocs/op show the steady state the engine reaches on
// repeated (or parallel, per-worker) executions.
func BenchmarkCollect(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	pts := clusteredPoints(rng, 3000, 2, 100)
	for _, bb := range benchBuilders {
		tree := bb.build(b, pts)
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"cacheoff", Options{ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled}},
			{"cachewarm", Options{ExcludeSelf: true}},
		} {
			b.Run(fmt.Sprintf("%s/%s", bb.name, mode.name), func(b *testing.B) {
				if _, _, err := CollectContext(context.Background(), tree, tree, mode.opts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := CollectContext(context.Background(), tree, tree, mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// fcTree bulk-loads a default-configuration MBRQT over an FC-like 10-D
// dataset — the shape of the paper's AkNN experiments (Figures 5-6).
func fcTree(tb testing.TB, n int) index.Tree {
	tb.Helper()
	tree, err := mbrqt.BulkLoad(newPool(1<<14), datagen.FCSurrogate(5, n), nil, mbrqt.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return tree
}

// BenchmarkLeafJoinAkNN measures the serial AkNN self-join over a 10-D
// FC-like 20 K tree with a warm node cache, where the fused leaf join is
// nearly all of the run. allocs/op should sit just above the row count
// (one neighbor slice per row): accumulator maintenance allocates
// nothing in steady state.
func BenchmarkLeafJoinAkNN(b *testing.B) {
	tree := fcTree(b, 20000)
	for _, k := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			opts := Options{K: k, ExcludeSelf: true}
			emit := func(Result) error { return nil }
			if _, err := RunContext(context.Background(), tree, tree, opts, emit); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunContext(context.Background(), tree, tree, opts, emit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinPeakHeap is the memory row of the parallel join: the
// benchmark spine's aknn_fc_mem shape (FC-like 40 K x 10-D self-join, two
// workers) with the rows thrown away, so what it holds is the engine's
// own. peak-heap-MB is the largest heap (live objects plus garbage not
// yet swept) seen by a 1 ms sampler during the timed joins; B/row is bytes
// allocated per emitted row. Ordered emit should sit a parked window above
// unordered, not a share of the answer.
func BenchmarkJoinPeakHeap(b *testing.B) {
	tree := fcTree(b, 40000)
	const heapBytes, allocBytes = "/memory/classes/heap/objects:bytes", "/gc/heap/allocs:bytes"
	read := func(name string) uint64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	for _, k := range []int{10, 50} {
		for _, mode := range []string{"ordered", "unordered"} {
			b.Run(fmt.Sprintf("k=%d/%s", k, mode), func(b *testing.B) {
				opts := Options{K: k, ExcludeSelf: true, Parallelism: 2, OrderedEmit: mode == "ordered"}
				rows := 0
				emit := func(Result) error { rows++; return nil }
				if _, err := RunContext(context.Background(), tree, tree, opts, emit); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				rows = 0
				stop, sampled := make(chan struct{}), make(chan uint64)
				go func() {
					tick := time.NewTicker(time.Millisecond)
					defer tick.Stop()
					peak := read(heapBytes)
					for {
						select {
						case <-tick.C:
							peak = max(peak, read(heapBytes))
						case <-stop:
							sampled <- peak
							return
						}
					}
				}()
				allocated := read(allocBytes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := RunContext(context.Background(), tree, tree, opts, emit); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				allocated = read(allocBytes) - allocated
				close(stop)
				b.ReportMetric(float64(<-sampled)/1e6, "peak-heap-MB")
				b.ReportMetric(float64(allocated)/float64(rows), "B/row")
			})
		}
	}
}
