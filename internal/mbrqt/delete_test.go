package mbrqt

import (
	"math/rand"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
)

func TestDeleteBasic(t *testing.T) {
	pool := newPool(256)
	rng := rand.New(rand.NewSource(1))
	pts := uniformPoints(rng, 100, 2, 1)
	tree, err := BulkLoad(pool, pts, nil, Config{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := tree.Delete(42, pts[42])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Delete missed an indexed point")
	}
	if tree.Len() != 99 {
		t.Fatalf("Len = %d, want 99", tree.Len())
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	res, err := index.RangeSearch(tree, geom.PointRect(pts[42]))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Object == 42 {
			t.Fatal("deleted object still indexed")
		}
	}
}

func TestDeleteMissing(t *testing.T) {
	pool := newPool(64)
	tree, err := New(pool, unitSpace(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(1, geom.Point{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tree.Delete(2, geom.Point{0.5, 0.5}); ok {
		t.Fatal("found nonexistent id")
	}
	if ok, _ := tree.Delete(1, geom.Point{0.1, 0.1}); ok {
		t.Fatal("found nonexistent coordinates")
	}
	if ok, _ := tree.Delete(1, geom.Point{5, 5}); ok {
		t.Fatal("found point outside the space")
	}
}

func TestDeleteEverything(t *testing.T) {
	pool := newPool(512)
	rng := rand.New(rand.NewSource(7))
	pts := uniformPoints(rng, 300, 2, 1)
	tree, err := BulkLoad(pool, pts, nil, Config{BucketCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	for step, i := range rng.Perm(len(pts)) {
		ok, err := tree.Delete(index.ObjectID(i), pts[i])
		if err != nil {
			t.Fatalf("delete %d: %v", step, err)
		}
		if !ok {
			t.Fatalf("delete %d: point %d not found", step, i)
		}
		if step%40 == 0 {
			if err := tree.CheckIntegrity(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tree.Len())
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The tree must be reusable.
	if err := tree.Insert(7, geom.Point{0.25, 0.75}); err != nil {
		t.Fatal(err)
	}
	if res, err := index.RangeSearch(tree, geom.PointRect(geom.Point{0.25, 0.75})); err != nil || len(res) != 1 {
		t.Fatalf("tree unusable after emptying: %v %v", res, err)
	}
}

func TestDeleteWithDuplicates(t *testing.T) {
	pool := newPool(256)
	tree, err := New(pool, unitSpace(2), Config{BucketCapacity: 4, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{0.5, 0.5}
	for i := 0; i < 20; i++ {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting one specific id must keep the other 19 duplicates.
	ok, err := tree.Delete(7, p)
	if err != nil || !ok {
		t.Fatalf("delete duplicate: %v %v", ok, err)
	}
	res, err := index.RangeSearch(tree, geom.PointRect(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 19 {
		t.Fatalf("%d duplicates remain, want 19", len(res))
	}
	for _, r := range res {
		if r.Object == 7 {
			t.Fatal("deleted duplicate still present")
		}
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteInsertChurn(t *testing.T) {
	pool := newPool(512)
	tree, err := New(pool, unitSpace(2), Config{BucketCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	live := map[index.ObjectID]geom.Point{}
	nextID := index.ObjectID(0)
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 || len(live) == 0 {
			p := geom.Point{rng.Float64(), rng.Float64()}
			if err := tree.Insert(nextID, p); err != nil {
				t.Fatal(err)
			}
			live[nextID] = p
			nextID++
		} else {
			// Delete an arbitrary live object.
			for id, p := range live {
				ok, err := tree.Delete(id, p)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("live object %d not found", id)
				}
				delete(live, id)
				break
			}
		}
	}
	if tree.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(live))
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if pool.PinnedFrames() != 0 {
		t.Fatal("pinned frame leak")
	}
}
