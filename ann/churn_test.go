package ann

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// churn builds an index over pts (file-backed under t.TempDir when file
// is set), runs churnOn from batch 0, and returns the index and its fresh
// page count.
func churn(t *testing.T, pts []Point, file bool, flushEvery, batches int) (*Index, int) {
	t.Helper()
	cfg := IndexConfig{}
	if file {
		cfg.PageFile = filepath.Join(t.TempDir(), "churn.pages")
	}
	ix, err := BuildIndex(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	fresh := ix.store.NumPages()
	churnOn(t, ix, pts, flushEvery, 0, batches)
	return ix, fresh
}

// churnOn commits batches from..from+batches-1 of the churn that began
// over pts: each deletes the 16 oldest points and inserts 16 new ones, so
// the cardinality stays len(pts), with a Flush every flushEvery batches
// (0: never).
func churnOn(t *testing.T, ix *Index, pts []Point, flushEvery, from, batches int) {
	t.Helper()
	const size = 16
	n := len(pts)
	// The j-th point in insertion order: the data, then midpoints of two
	// data points, which lie inside the quadtree's fixed root cell.
	at := func(j int) (uint64, Point) {
		if j < n {
			return uint64(j), pts[j]
		}
		p, q := pts[(j-n)*7919%n], pts[((j-n)*104729+1)%n]
		return uint64(j), Point{(p[0] + q[0]) / 2, (p[1] + q[1]) / 2}
	}
	ids, batch := make([]uint64, size), make([]Point, size)
	for b := from; b < from+batches; b++ {
		for i := range ids {
			ids[i], batch[i] = at(b*size + i)
		}
		if found, err := ix.DeleteBatch(ids, batch); err != nil || found != size {
			t.Fatalf("batch %d: deleted %d of %d: %v", b, found, size, err)
		}
		for i := range ids {
			ids[i], batch[i] = at(n + b*size + i)
		}
		if err := ix.InsertBatch(ids, batch); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if flushEvery > 0 && (b+1)%flushEvery == 0 {
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ix.Len() != n {
		t.Fatalf("cardinality drifted to %d", ix.Len())
	}
}

var churnRows = []struct {
	name       string
	file       bool
	flushEvery int
}{{"mem", false, 0}, {"file-flush1", true, 1}, {"file-flush10", true, 10}, {"file-flush400", true, 400}}

// TestChurnPlateau is ROADMAP 1(a)'s invariant: steady delete/insert
// churn at constant cardinality must not grow the page store without
// bound, whatever the checkpoint cadence. A page a batch supersedes
// comes back as soon as no snapshot reads it when it was claimed since
// the last checkpoint, and after the next checkpoint's fence otherwise
// (an in-memory index has no durable root to protect and fences in its
// commit path), so the store plateaus a few batches' worth of pages
// above its fresh size — also when no checkpoint comes at all (the
// every-400 row never reaches one). And a claimed page is never read:
// the pool holds the whole index here, so the writer reads no page.
func TestChurnPlateau(t *testing.T) {
	const n, batches = 20000, 300
	pts := randomPoints(7, n, 2)
	for _, row := range churnRows {
		t.Run(fmt.Sprintf("%v/%s", MBRQT, row.name), func(t *testing.T) {
			ix, fresh := churn(t, pts, row.file, row.flushEvery, batches)
			got := ix.store.NumPages()
			free, drained, deferred, young := ix.tree.PageGauges()
			t.Logf("%d → %d pages after %d batches; free %d, drained %d, deferred refs %d, young %d", fresh, got, batches,
				free, drained, deferred, young)
			if got > 4*fresh {
				t.Fatalf("store grew from %d to %d pages (> 4×) under constant-cardinality churn", fresh, got)
			}
			if free+drained == 0 {
				t.Fatal("the lifecycle gauges report no page on its way back")
			}
			if reads := ix.Stats().PoolReads; reads != 0 {
				t.Fatalf("the writer read %d pages from the store; a claimed page must cost none", reads)
			}
		})
	}
}

// TestChurnAcrossReopen holds the plateau across process lifetimes: the
// free list is not part of the durable image, so OpenIndex finds it
// again — every page the tree does not reach — and a page that was dead
// when one process stopped is claimed by the next. Without that each
// round leaks what the last one left: 67 → 140 → 246 → 349 → 461 → 569
// pages (MBRQT) where a never-restarted index plateaus near 140.
func TestChurnAcrossReopen(t *testing.T) {
	const n, rounds, batches = 20000, 5, 60
	pts := randomPoints(7, n, 2)
	t.Run(MBRQT.String(), func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "reopen.pages")
		ix, err := BuildIndex(pts, IndexConfig{PageFile: path})
		if err != nil {
			t.Fatal(err)
		}
		fresh := ix.store.NumPages()
		sizes := []int{fresh}
		for r := 0; r < rounds; r++ {
			churnOn(t, ix, pts, 0, r*batches, batches)
			sizes = append(sizes, ix.store.NumPages())
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if ix, err = OpenIndex(path, IndexConfig{}); err != nil {
				t.Fatal(err)
			}
			checkIntegrity(t, fmt.Sprintf("round %d", r), ix)
		}
		defer ix.Close()
		t.Logf("store pages, fresh and after each round: %v", sizes)
		if got := ix.store.NumPages(); got > 4*fresh {
			t.Fatalf("store grew from %d to %d pages (> 4×) over %d close/open rounds: %v", fresh, got, rounds, sizes)
		}
	})
}

// TestChurnTable logs EXPERIMENTS.md's "Churn and the fence cadence"
// table — 2 000 batches, store pages fresh → final at every cadence — and
// bounds nothing (TestChurnPlateau does, on 300
// batches). It runs only when -run names it, as `make churn-table` does.
func TestChurnTable(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "ChurnTable") {
		t.Skip("minutes of churn that assert nothing; run by make churn-table")
	}
	const n, batches = 20000, 2000
	pts := randomPoints(7, n, 2)
	for _, row := range churnRows {
		ix, fresh := churn(t, pts, row.file, row.flushEvery, batches)
		t.Logf("%-14s %4d → %5d pages", row.name, fresh, ix.store.NumPages())
	}
}
