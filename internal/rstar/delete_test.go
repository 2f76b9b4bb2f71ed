package rstar

import (
	"math/rand"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
)

func TestDeleteBasic(t *testing.T) {
	pool := newPool(256)
	tree, err := New(pool, 2, Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	pts := uniformPoints(rand.New(rand.NewSource(1)), 30, 2, 100)
	for i, p := range pts {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tree.Delete(5, pts[5])
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Delete did not find an indexed point")
	}
	if tree.Len() != 29 {
		t.Fatalf("Len = %d, want 29", tree.Len())
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// The deleted point must be gone; others must remain findable.
	res, err := index.RangeSearch(tree, geom.PointRect(pts[5]))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Object == 5 {
			t.Fatal("deleted object still indexed")
		}
	}
}

func TestDeleteMissing(t *testing.T) {
	pool := newPool(64)
	tree, err := New(pool, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(1, geom.Point{1, 1}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tree.Delete(2, geom.Point{1, 1}); ok {
		t.Fatal("Delete found a nonexistent id")
	}
	if ok, _ := tree.Delete(1, geom.Point{9, 9}); ok {
		t.Fatal("Delete found nonexistent coordinates")
	}
	if tree.Len() != 1 {
		t.Fatal("failed deletes must not change size")
	}
}

func TestDeleteAllPoints(t *testing.T) {
	pool := newPool(512)
	tree, err := New(pool, 2, Config{MaxEntries: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pts := uniformPoints(rng, 200, 2, 50)
	for i, p := range pts {
		if err := tree.Insert(index.ObjectID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	// Delete in random order, verifying integrity periodically.
	order := rng.Perm(len(pts))
	for step, i := range order {
		ok, err := tree.Delete(index.ObjectID(i), pts[i])
		if err != nil {
			t.Fatalf("delete %d: %v", step, err)
		}
		if !ok {
			t.Fatalf("delete %d: point %d not found", step, i)
		}
		if step%25 == 0 {
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
	// Reuse after emptying must work.
	if err := tree.Insert(999, geom.Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	res, err := index.NearestNeighbors(tree, geom.Point{1, 2}, 1)
	if err != nil || len(res) != 1 || res[0].Object != 999 {
		t.Fatalf("tree unusable after emptying: %v %v", res, err)
	}
}

func TestDeleteInterleavedWithQueries(t *testing.T) {
	pool := newPool(1024)
	tree, err := New(pool, 3, Config{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	type rec struct {
		pt    geom.Point
		alive bool
	}
	var recs []rec
	for step := 0; step < 1500; step++ {
		switch {
		case rng.Intn(3) > 0 || len(recs) == 0: // insert
			p := geom.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
			if err := tree.Insert(index.ObjectID(len(recs)), p); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec{pt: p, alive: true})
		default: // delete a random live record
			alive := make([]int, 0, len(recs))
			for i := range recs {
				if recs[i].alive {
					alive = append(alive, i)
				}
			}
			if len(alive) == 0 {
				continue
			}
			i := alive[rng.Intn(len(alive))]
			ok, err := tree.Delete(index.ObjectID(i), recs[i].pt)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("live record %d not found", i)
			}
			recs[i].alive = false
		}
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Every live record must be findable, every dead one gone.
	liveCount := 0
	for i := range recs {
		found := false
		res, err := index.RangeSearch(tree, geom.PointRect(recs[i].pt))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Object == index.ObjectID(i) {
				found = true
			}
		}
		if found != recs[i].alive {
			t.Fatalf("record %d: found=%v alive=%v", i, found, recs[i].alive)
		}
		if recs[i].alive {
			liveCount++
		}
	}
	if tree.Len() != liveCount {
		t.Fatalf("Len = %d, live records %d", tree.Len(), liveCount)
	}
}
