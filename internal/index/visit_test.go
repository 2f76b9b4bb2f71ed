package index_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/index/indextest"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// sameEntry compares a visited slot with an expanded entry field by field.
func sameEntry(a, b *index.Entry) bool {
	return a.Kind == b.Kind && a.Child == b.Child && a.Count == b.Count && a.Object == b.Object &&
		slices.Equal(a.Point, b.Point) && slices.Equal(a.MBR.Lo, b.MBR.Lo) && slices.Equal(a.MBR.Hi, b.MBR.Hi)
}

// requireVisitMatchesExpand walks the whole tree and checks, node by node,
// that the Blocks Visit hands out decode to exactly Expand's entries in
// Expand's order. It returns the size of the longest leaf seen.
func requireVisitMatchesExpand(t *testing.T, tree index.Tree) (longestLeaf int) {
	t.Helper()
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.Count == 0 {
		return 0
	}
	queue := []index.Entry{root}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		want, err := tree.Expand(&node)
		if err != nil {
			t.Fatal(err)
		}
		var got []index.Entry
		err = tree.Visit(node.Child, func(b index.Block) error {
			got = append(got, indextest.Entries(b)...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: visit yields %d slots, Expand %d entries", node.Child, len(got), len(want))
		}
		for i := range want {
			if !sameEntry(&got[i], &want[i]) {
				t.Fatalf("node %d slot %d: visited %+v, expanded %+v", node.Child, i, got[i], want[i])
			}
		}
		for j := range want {
			if !want[j].IsObject() {
				queue = append(queue, want[j])
			} else {
				longestLeaf = max(longestLeaf, len(want))
			}
		}
	}
	return longestLeaf
}

// TestVisitMatchesExpand: the in-place visitor and the decoding Expand are
// two readers of one format and must agree on every node of every tree,
// freshly bulk-loaded and, for MBRQT, after insert/delete batches have
// rewritten, split and chained nodes.
func TestVisitMatchesExpand(t *testing.T) {
	for _, kind := range []string{"mbrqt", "rstar"} {
		for _, dim := range []int{2, 3, 7, 10} {
			t.Run(fmt.Sprintf("%s/d%d", kind, dim), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(40 + dim)))
				pts := clustered(rng, 6000, dim)
				pool := storage.NewBufferPool(storage.NewMemStore(), 1<<12)
				tree := newTree(t, kind, pool, pts)
				// A record holds at most 340 leaf entries (2-D).
				if longest := requireVisitMatchesExpand(t, tree); kind == "mbrqt" && longest < 2*340 {
					t.Fatalf("longest leaf holds %d points: none chains several records", longest)
				}
				m, mutable := tree.(*mbrqt.Tree)
				for batch := 0; mutable && batch < 3; batch++ {
					for i := batch * 500; i < (batch+1)*500; i++ {
						// A midpoint of two indexed points lies inside the index space.
						mid := pts[i].Clone()
						for d := range mid {
							mid[d] = (mid[d] + pts[len(pts)-1-i][d]) / 2
						}
						if err := m.Insert(index.ObjectID(len(pts)+i), mid); err != nil {
							t.Fatal(err)
						}
						if ok, err := m.Delete(index.ObjectID(3*i), pts[3*i]); err != nil || !ok {
							t.Fatalf("delete %d: %v %v", 3*i, ok, err)
						}
					}
					requireVisitMatchesExpand(t, tree)
				}
				storage.RequireNoPinnedFrames(t, pool)
			})
		}
	}
}

// TestPointQueriesVsBruteForce checks kNN and range answers of both tree
// kinds, in memory and through a 64-frame pool over a page file, against
// exhaustive search — on uniform data and on a lattice with duplicates,
// where the k-th distance is tied many times over.
func TestPointQueriesVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	datasets := map[string][]geom.Point{
		"uniform2": uniform(rng, 4000, 2),
		"uniform7": uniform(rng, 3000, 7),
		"lattice2": lattice(4000, 2),
		"lattice3": lattice(3000, 3),
		"tiny":     uniform(rng, 7, 3), // every k below exceeds n
	}
	for name, pts := range datasets {
		dim := len(pts[0])
		queries := append(uniform(rng, 12, dim), pts[1], pts[len(pts)/2])
		for _, kind := range []string{"mbrqt", "rstar"} {
			for _, backing := range []string{"mem", "file64"} {
				t.Run(fmt.Sprintf("%s/%s/%s", name, kind, backing), func(t *testing.T) {
					pool := newPool(t, backing)
					tree := newTree(t, kind, pool, pts)
					for _, k := range []int{1, 4, 10, 50} {
						want := bruteforce.AkNN(bruteforce.FromPoints(queries), bruteforce.FromPoints(pts), k, false)
						for qi, q := range queries {
							got, err := index.NearestNeighbors(tree, q, k)
							if err != nil {
								t.Fatal(err)
							}
							if len(got) != len(want[qi].Neighbors) {
								t.Fatalf("k=%d query %d: %d neighbors, want %d", k, qi, len(got), len(want[qi].Neighbors))
							}
							seen := map[index.ObjectID]bool{}
							for i, r := range got {
								if math.Sqrt(r.DistSq) != want[qi].Neighbors[i].Dist {
									t.Fatalf("k=%d query %d: neighbor %d at %g, want %g", k, qi, i, math.Sqrt(r.DistSq), want[qi].Neighbors[i].Dist)
								}
								if seen[r.Object] || !r.Point.Equal(pts[r.Object]) || geom.DistSq(q, r.Point) != r.DistSq {
									t.Fatalf("k=%d query %d: neighbor %d = %+v is repeated or not the indexed point", k, qi, i, r)
								}
								seen[r.Object] = true
							}
						}
					}
					for qi, q := range queries {
						lo, hi := q.Clone(), q.Clone()
						for d := range q {
							lo[d], hi[d] = q[d]-float64(3+qi), q[d]+float64(3+qi)
						}
						rect := geom.Rect{Lo: lo, Hi: hi}
						got, err := index.RangeSearch(tree, rect)
						if err != nil {
							t.Fatal(err)
						}
						var gotIDs, wantIDs []index.ObjectID
						for _, r := range got {
							if !r.Point.Equal(pts[r.Object]) {
								t.Fatalf("range %d: object %d comes back as %v", qi, r.Object, r.Point)
							}
							gotIDs = append(gotIDs, r.Object)
						}
						for i, p := range pts {
							if rect.Contains(p) {
								wantIDs = append(wantIDs, index.ObjectID(i))
							}
						}
						slices.Sort(gotIDs)
						if !slices.Equal(gotIDs, wantIDs) {
							t.Fatalf("range %d: %d points, want %d", qi, len(gotIDs), len(wantIDs))
						}
					}
					storage.RequireNoPinnedFrames(t, pool)
				})
			}
		}
	}
}

// TestVisitReleasesPinsOnEveryExit: a visit that the callback stops, at
// any record of a chained node, returns the callback's error as is and
// leaves no frame pinned; so does one whose page read fails.
func TestVisitReleasesPinsOnEveryExit(t *testing.T) {
	stop := errors.New("stop")
	rng := rand.New(rand.NewSource(9))
	for _, kind := range []string{"mbrqt", "rstar"} {
		// 1000 points: the MBRQT root is one leaf chained over three records.
		pool := storage.NewBufferPool(storage.NewMemStore(), 64)
		tree := newTree(t, kind, pool, uniform(rng, 1000, 2))
		root, err := tree.Root()
		if err != nil {
			t.Fatal(err)
		}
		records, slots := 0, 0
		if err := tree.Visit(root.Child, func(b index.Block) error { records++; slots += b.N; return nil }); err != nil {
			t.Fatal(err)
		}
		if kind == "mbrqt" && (slots != 1000 || records != 3) {
			t.Fatalf("mbrqt root holds %d slots in %d records, want the 1000 points in one leaf chained over three", slots, records)
		}
		for after := 0; after < records; after++ {
			seen := 0
			err := tree.Visit(root.Child, func(index.Block) error {
				if seen == after {
					return stop
				}
				seen++
				return nil
			})
			if err != stop {
				t.Fatalf("%s: stopping at record %d returned %v", kind, after, err)
			}
		}
		storage.RequireNoPinnedFrames(t, pool)

		// A tree several times the pool, then a store that fails every
		// read: queries must fault pages in, fail, and unpin what they held.
		fault := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{})
		pool = storage.NewBufferPoolWithConfig(fault, 64, storage.BufferPoolConfig{ReadRetries: -1})
		pts := uniform(rng, 60000, 2)
		tree = newTree(t, kind, pool, pts)
		fault.SetConfig(storage.FaultConfig{FailReadsAfter: 1})
		failed := 0
		for i := 0; i < 200; i++ {
			if _, err := index.NearestNeighbors(tree, pts[i*13], 10); err != nil {
				if !storage.IsTransient(err) {
					t.Fatalf("%s: kNN failed with %v, want the store's transient read error", kind, err)
				}
				failed++
			}
		}
		if failed == 0 {
			t.Fatalf("%s: no kNN failed over a store that fails every read", kind)
		}
		if _, err := index.RangeSearch(tree, tree.Bounds()); !storage.IsTransient(err) {
			t.Fatalf("%s: full-extent range search over a failing store returned %v", kind, err)
		}
		storage.RequireNoPinnedFrames(t, pool)
	}
}
