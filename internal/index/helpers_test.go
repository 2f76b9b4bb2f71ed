package index_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/rstar"
	"allnn/internal/storage"
)

// chainBucket makes MBRQT leaves several records long at every tested
// dimensionality (a record holds 340 2-D or 92 10-D points).
const chainBucket = 1200

// newTree bulk-loads pts into a tree of the kind; an "mbrqt" one is a
// *mbrqt.Tree.
func newTree(t testing.TB, kind string, pool *storage.BufferPool, pts []geom.Point) index.Tree {
	t.Helper()
	var tree index.Tree
	var err error
	if kind == "rstar" {
		tree, err = rstar.BulkLoad(pool, pts, nil, rstar.Config{})
	} else {
		tree, err = mbrqt.BulkLoad(pool, pts, nil, mbrqt.Config{BucketCapacity: chainBucket})
	}
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// newPool returns a pool over a memory store, or over a page file behind
// 64 frames so that most node visits miss.
func newPool(t testing.TB, backing string) *storage.BufferPool {
	t.Helper()
	if backing == "mem" {
		return storage.NewBufferPool(storage.NewMemStore(), 1<<12)
	}
	fs, err := storage.NewFileStore(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return storage.NewBufferPool(fs, 64)
}

func uniform(rng *rand.Rand, n, dim int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = rng.Float64() * 100
		}
	}
	return pts
}

// lattice returns n points on an integer grid with every third point
// doubled: distance ties and exact duplicates in every neighborhood.
func lattice(n, dim int) []geom.Point {
	side := int(math.Ceil(math.Pow(float64(n), 1/float64(dim))))
	pts := make([]geom.Point, n)
	for i := range pts {
		cell := i
		if i%3 == 2 {
			cell = i - 1
		}
		pts[i] = make(geom.Point, dim)
		for d := range pts[i] {
			pts[i][d] = float64(cell % side)
			cell /= side
		}
	}
	return pts
}

// clustered returns n points: five tight blobs of n/6 points each, which
// the quadtree keeps as single leaves of about a thousand points, and
// uniform background for the rest.
func clustered(rng *rand.Rand, n, dim int) []geom.Point {
	pts := uniform(rng, n, dim)
	for c := 0; c < 5; c++ {
		center := make(geom.Point, dim)
		for d := range center {
			center[d] = 10 + 80*rng.Float64()
		}
		for i := c * (n / 6); i < (c+1)*(n/6); i++ {
			for d := range pts[i] {
				pts[i][d] = center[d] + 0.2*rng.NormFloat64()
			}
		}
	}
	return pts
}
