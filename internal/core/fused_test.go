package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// hashRun executes the engine and hashes the emitted stream (object ids,
// neighbor ids, distance bits, in emission order), so two runs can be
// compared for byte-identical output.
func hashRun(t *testing.T, ir, is index.Tree, opts Options) (uint64, Stats) {
	t.Helper()
	h := fnv.New64a()
	var word [8]byte
	write := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	stats, err := RunContext(context.Background(), ir, is, opts, func(r Result) error {
		write(r.ID)
		for _, n := range r.Neighbors {
			write(n.ID)
			write(math.Float64bits(n.Dist))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), stats
}

// normCache folds the node-cache hit/miss split into its total: which
// tier serves a fetch depends on cache residency and sharding (runs on a
// shared index warm it, parallel runs re-shard it), while the total is a
// pure function of the traversal — the invariant these tests compare.
func normCache(s Stats) Stats {
	s.NodeCacheHits += s.NodeCacheMisses
	s.NodeCacheMisses = 0
	return s
}

// latticePoints returns the first n points of the integer lattice in dim
// dimensions: every point has many neighbors at exactly equal distances.
func latticePoints(n, dim int) []geom.Point {
	side := int(math.Ceil(math.Pow(float64(n), 1/float64(dim))))
	pts := make([]geom.Point, 0, n)
	idx := make([]int, dim)
	for len(pts) < n {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = float64(idx[d])
		}
		pts = append(pts, p)
		for d := 0; d < dim; d++ {
			if idx[d]++; idx[d] < side {
				break
			}
			idx[d] = 0
		}
	}
	return pts
}

// duplicatePoints draws n points from only `distinct` coordinates, so most
// of every neighbor list sits at distance zero.
func duplicatePoints(rng *rand.Rand, n, dim, distinct int) []geom.Point {
	base := make([]geom.Point, distinct)
	for i := range base {
		base[i] = make(geom.Point, dim)
		for d := range base[i] {
			base[i][d] = float64(rng.Intn(6))
		}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = base[rng.Intn(distinct)]
	}
	return pts
}

// TestFusedLeafTies covers the accumulators' tie handling: on lattice and
// heavy-duplicate data, where many candidates sit exactly at the k-th
// distance, the fused leaf join must return rank-identical distances to
// brute force, and a row lists equal-distance neighbors in arrival order —
// a function of the traversal alone. So every way of running the query
// (node cache on or off, serial or ordered-parallel at 2, 4 and 8 workers)
// must emit one stream, byte for byte and ids included, with identical
// Stats — for k below and above the leaf population (16), with and without
// ExcludeSelf.
func TestFusedLeafTies(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dim := range []int{2, 3, 7, 10} {
		sets := map[string][]geom.Point{
			"lattice": latticePoints(300, dim),
			"dups":    duplicatePoints(rng, 300, dim, 12),
		}
		for name, pts := range sets {
			tree := buildMBRQT(t, pts)
			for _, k := range []int{1, 4, 10, 50} {
				for _, ex := range []bool{false, true} {
					opts := Options{K: k, ExcludeSelf: ex}
					tag := fmt.Sprintf("%s/%dd/k=%d/excludeSelf=%v", name, dim, k, ex)
					stats := checkAgainstBrute(t, tree, tree, pts, pts, opts)
					want, _ := hashRun(t, tree, tree, opts)
					for _, cache := range []int64{0, NodeCacheDisabled} {
						for _, par := range []int{1, 2, 4, 8} {
							popts := opts
							popts.NodeCacheBytes = cache
							popts.Parallelism, popts.OrderedEmit = par, true
							got, pstats := hashRun(t, tree, tree, popts)
							if got != want {
								t.Fatalf("%s: cache=%d parallel=%d output differs from the serial cached run", tag, cache, par)
							}
							ss, ps := normCache(stats), normCache(pstats)
							if cache == NodeCacheDisabled {
								ss.NodeCacheHits = 0 // no lookups to count, everything else equal
							}
							if ps != ss {
								t.Fatalf("%s: cache=%d parallel=%d stats differ:\nserial:   %+v\nparallel: %+v", tag, cache, par, stats, pstats)
							}
						}
					}
				}
			}
		}
	}
}

// TestFusedLeafAtomicTask covers the two places the parallel executor
// meets a leaf of I_R it cannot hand to a worker as an LPQ subtree: trees
// so small that the serial frontier prefix reaches the leaves (their rows
// must wait in the frontier's emit slots), and leaves holding more points
// than the split threshold (minSplitCount), where the straggler split
// finds a leaf and its rows must land in that task's slot. Ordered output
// is byte-identical to serial, unordered output is the same row set, and
// Stats match, whatever the worker count.
func TestFusedLeafAtomicTask(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	build := func(pts []geom.Point, bucket int) index.Tree {
		tree, err := mbrqt.BulkLoad(newPool(4096), pts, nil, mbrqt.Config{BucketCapacity: bucket})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	type treeCase struct {
		name string
		pts  []geom.Point
		tree index.Tree
	}
	var cases []treeCase
	for _, n := range []int{3, 17, 40, 150} { // the root is a leaf ... three levels
		pts := uniformPoints(rng, n, 2, 100)
		cases = append(cases, treeCase{fmt.Sprintf("tiny-%d", n), pts, build(pts, 16)})
	}
	big := clusteredPoints(rng, 3000, 2, 100)
	cases = append(cases, treeCase{"fat-leaves", big, build(big, 4*minSplitCount)})

	for _, c := range cases {
		opts := Options{K: 3, ExcludeSelf: true}
		serial, stats := collectWith(t, c.tree, c.tree, opts)
		want, _ := hashRun(t, c.tree, c.tree, opts)
		for _, par := range []int{2, 4, 8} {
			popts := opts
			popts.Parallelism, popts.OrderedEmit = par, true
			got, pstats := hashRun(t, c.tree, c.tree, popts)
			if got != want {
				t.Fatalf("%s: ordered parallel=%d output differs from serial", c.name, par)
			}
			if normCache(pstats) != normCache(stats) {
				t.Fatalf("%s: parallel=%d stats differ:\nserial:   %+v\nparallel: %+v", c.name, par, stats, pstats)
			}
			popts.OrderedEmit = false
			unordered, _ := collectWith(t, c.tree, c.tree, popts)
			sortByObject(unordered)
			sorted := append([]Result(nil), serial...)
			sortByObject(sorted)
			if len(unordered) != len(sorted) {
				t.Fatalf("%s: unordered parallel=%d emitted %d rows, want %d", c.name, par, len(unordered), len(sorted))
			}
			for i := range sorted {
				if unordered[i].ID != sorted[i].ID || len(unordered[i].Neighbors) != len(sorted[i].Neighbors) {
					t.Fatalf("%s: unordered parallel=%d row %d differs", c.name, par, i)
				}
			}
		}
	}

	// An emit error raised while the frontier's finished leaves are being
	// delivered stops the run before any worker starts.
	boom := errors.New("boom")
	tiny := cases[1]
	_, err := RunContext(context.Background(), tiny.tree, tiny.tree, Options{K: 1, ExcludeSelf: true, Parallelism: 4, OrderedEmit: true},
		func(Result) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("emit error from a frontier leaf: got %v, want boom", err)
	}
}

// cancelAfter wraps a target index and cancels the query's context on its
// n-th Expand; later expansions yield so the engine's watcher goroutine
// can publish the cancellation.
type cancelAfter struct {
	index.Tree
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Expand(e *index.Entry) ([]index.Entry, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	} else if c.n < 0 {
		runtime.Gosched()
	}
	return c.Tree.Expand(e)
}

// TestFusedLeafCancelMidLeaf cancels a query while a single leaf join is
// in flight: the query index is one leaf, so the whole run is one fused
// join whose candidate drain needs hundreds of I_S expansions. The drain
// must notice the cancellation between expansions, return ctx.Err(), emit
// none of the leaf's rows (a leaf's rows only leave once its join is
// complete) and leave no buffer-pool frame pinned.
func TestFusedLeafCancelMidLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rTree := buildMBRQT(t, uniformPoints(rng, 12, 2, 100))
	sPool := storage.NewBufferPool(storage.NewMemStore(), 8)
	sTree, err := mbrqt.BulkLoad(sPool, uniformPoints(rng, 6000, 2, 100), nil, mbrqt.Config{BucketCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		rows := 0
		_, err := RunContext(ctx, rTree, &cancelAfter{Tree: sTree, n: 5, cancel: cancel},
			Options{K: 2000, Parallelism: par, OrderedEmit: true, NodeCacheBytes: NodeCacheDisabled},
			func(Result) error { rows++; return nil })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism=%d: err = %v, want context.Canceled", par, err)
		}
		if rows != 0 {
			t.Fatalf("parallelism=%d: %d rows of the interrupted leaf were emitted", par, rows)
		}
		storage.RequireNoPinnedFrames(t, sPool)
	}
}

// TestFusedLeafSteadyStateAllocs pins the allocation profile of a warm
// AkNN self-join: one neighbor slice per result row, plus whatever the
// node-owner LPQs above the leaves cost when the LPQ pool has been
// emptied under them (a GC, or the race detector's lossy sync.Pool) — a
// struct and a few slice growths each. Nothing per query object and
// nothing per accumulator insertion.
func TestFusedLeafSteadyStateAllocs(t *testing.T) {
	tree := fcTree(t, 4000)
	opts := Options{K: 10, ExcludeSelf: true}
	emit := func(Result) error { return nil }
	stats, err := RunContext(context.Background(), tree, tree, opts, emit) // warms the node cache and the scratch
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunContext(context.Background(), tree, tree, opts, emit); err != nil {
			t.Fatal(err)
		}
	})
	limit := float64(stats.Results + 5*stats.LPQsCreated)
	t.Logf("%.0f allocs per run: %d rows, %d LPQs, limit %.0f", allocs, stats.Results, stats.LPQsCreated, limit)
	if allocs > limit {
		t.Fatalf("warm self-join made %.0f allocations for %d rows and %d LPQs; want at most %.0f",
			allocs, stats.Results, stats.LPQsCreated, limit)
	}
}
