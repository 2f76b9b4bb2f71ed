package index_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/index/indextest"
	"allnn/internal/mbrqt"
	"allnn/internal/pq"
	"allnn/internal/rstar"
	"allnn/internal/storage"
)

// referenceKNN is the best-first search the scan kernels must reproduce:
// every Block decoded into entries, every slot offered in order with a
// full geom.DistSq or MINDIST and a strict `d < Worst()` admission. Under
// ties the answer depends on the exact sequence of heap operations, so
// agreeing with it bit for bit on tie-heavy data shows the kernels issue
// that sequence — early abandon included.
func referenceKNN(t *testing.T, tree index.Tree, q geom.Point, k int) []index.QueryResult {
	t.Helper()
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.Count == 0 {
		return nil
	}
	frontier := pq.NewHeap[storage.PageID](16)
	best := pq.NewKBest[index.QueryResult](k)
	frontier.Push(geom.MinDistPointRectSq(q, root.MBR), root.Child)
	for frontier.Len() > 0 {
		item, _ := frontier.Pop()
		if item.Key >= best.Worst() {
			break
		}
		err := tree.Visit(item.Value, func(b index.Block) error {
			for _, e := range indextest.Entries(b) {
				if e.IsObject() {
					if d := geom.DistSq(q, e.Point); d < best.Worst() {
						best.Add(d, index.QueryResult{Object: e.Object, Point: e.Point, DistSq: d})
					}
				} else if d := geom.MinDistPointRectSq(q, e.MBR); d < best.Worst() {
					frontier.Push(d, e.Child)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []index.QueryResult
	for _, it := range best.Items() {
		out = append(out, it.Value)
	}
	return out
}

// requireSameResults compares two answers bit for bit.
func requireSameResults(t *testing.T, what string, got, want []index.QueryResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", what, len(got), len(want))
	}
	for i := range want {
		same := got[i].Object == want[i].Object && math.Float64bits(got[i].DistSq) == math.Float64bits(want[i].DistSq) &&
			len(got[i].Point) == len(want[i].Point)
		for d := 0; same && d < len(want[i].Point); d++ {
			same = math.Float64bits(got[i].Point[d]) == math.Float64bits(want[i].Point[d])
		}
		if !same {
			t.Fatalf("%s: neighbor %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestBatchMatchesSinglesAndReference: over both trees, the 2-D fast path
// and the general kernel, lattice data whose k-th distance is tied many
// times over with every third point doubled, and k from 1 to beyond the
// cardinality — a batch equals its probes run one by one, and each probe
// equals the slot-by-slot reference, bit for bit.
func TestBatchMatchesSinglesAndReference(t *testing.T) {
	for _, kind := range []string{"mbrqt", "rstar"} {
		for _, dim := range []int{2, 3, 10} {
			t.Run(fmt.Sprintf("%s/d%d", kind, dim), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(17 + dim)))
				pts := append(lattice(2400, dim), uniform(rng, 600, dim)...)
				pool := storage.NewBufferPool(storage.NewMemStore(), 1<<12)
				tree := newTree(t, kind, pool, pts)
				var qs [][]float64
				for _, q := range append(uniform(rng, 20, dim), pts[4], pts[5], pts[1000], pts[2900]) {
					qs = append(qs, q)
				}
				for _, k := range []int{1, 10, 50, len(pts) + 7} {
					between := 0
					batch, err := index.BatchNearestNeighbors(tree, qs, k, func() error { between++; return nil })
					if err != nil {
						t.Fatal(err)
					}
					if len(batch) != len(qs) || between != len(qs)-1 {
						t.Fatalf("k=%d: %d answers to %d probes, %d calls between them", k, len(batch), len(qs), between)
					}
					for i, q := range qs {
						single, err := index.NearestNeighbors(tree, q, k)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResults(t, fmt.Sprintf("k=%d probe %d, batch vs single", k, i), batch[i], single)
						if k <= 50 || i < 3 {
							requireSameResults(t, fmt.Sprintf("k=%d probe %d, single vs reference", k, i), single, referenceKNN(t, tree, q, k))
						}
					}
				}
				storage.RequireNoPinnedFrames(t, pool)
			})
		}
	}
}

// TestBatchEdges: an emptied MBRQT and an empty R*-tree answer every
// probe with nothing, k < 1 and an empty batch are no work, a probe of the
// wrong dimensionality is an error, and an error from the between hook
// ends the batch with no result and no pinned frame.
func TestBatchEdges(t *testing.T) {
	stop := errors.New("stop")
	for _, kind := range []string{"mbrqt", "rstar"} {
		pool := storage.NewBufferPool(storage.NewMemStore(), 64)
		pts := uniform(rand.New(rand.NewSource(3)), 500, 3)
		tree := newTree(t, kind, pool, pts)
		qs := [][]float64{pts[0], pts[1], pts[2]}

		if res, err := index.BatchNearestNeighbors(tree, nil, 4, nil); err != nil || len(res) != 0 {
			t.Fatalf("%s: empty batch: %v, %v", kind, res, err)
		}
		if res, err := index.BatchNearestNeighbors(tree, qs, 0, nil); err != nil || len(res) != 3 || res[0] != nil {
			t.Fatalf("%s: k=0: %v, %v", kind, res, err)
		}
		if _, err := index.BatchNearestNeighbors(tree, [][]float64{pts[0], {1, 2}}, 4, nil); err == nil {
			t.Fatalf("%s: a 2-D probe of a 3-D tree was answered", kind)
		}
		if _, err := index.RangeSearch(tree, geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{1, 1}}); err == nil {
			t.Fatalf("%s: a 2-D box over a 3-D tree was answered", kind)
		}
		calls := 0
		res, err := index.BatchNearestNeighbors(tree, qs, 4, func() error {
			if calls++; calls == 2 {
				return stop
			}
			return nil
		})
		if err != stop || res != nil {
			t.Fatalf("%s: batch stopped before probe 3 returned %v, %v", kind, res, err)
		}

		var empty index.Tree
		if kind == "mbrqt" {
			one := newTree(t, kind, pool, pts[:1]).(*mbrqt.Tree)
			if ok, err := one.Delete(0, pts[0]); err != nil || !ok {
				t.Fatalf("%s: delete: %v %v", kind, ok, err)
			}
			empty = one
		} else if empty, err = rstar.New(pool, 3, rstar.Config{}); err != nil {
			t.Fatal(err)
		}
		res, err = index.BatchNearestNeighbors(empty, qs, 4, nil)
		if err != nil || len(res) != 3 || res[0] != nil || res[2] != nil {
			t.Fatalf("%s: emptied tree: %v, %v", kind, res, err)
		}
		storage.RequireNoPinnedFrames(t, pool)
	}
}
