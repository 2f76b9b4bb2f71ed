package ann

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestChurnPlateau is ROADMAP 1(a)'s invariant: steady delete/insert
// churn at constant cardinality must not grow the page store without
// bound. Pages a batch supersedes come back after the next fence, so
// the store plateaus a few batches' worth of pages above its fresh
// size: with a checkpoint every batch for a file-backed index, and with
// no checkpoint at all for an in-memory one, which has no durable root
// to protect and fences in its commit path. The cadence row (a
// checkpoint every 10 batches) is logged, not bounded: its plateau is
// the cadence times the pages a batch dirties.
func TestChurnPlateau(t *testing.T) {
	const n, batches, size = 20000, 300, 16
	pts := randomPoints(7, n, 2)
	rows := []struct {
		name       string
		file       bool
		flushEvery int
	}{{"mem", false, 0}, {"file-flush1", true, 1}, {"file-flush10", true, 10}}
	for _, kind := range []IndexKind{MBRQT, RStar} {
		for _, row := range rows {
			t.Run(fmt.Sprintf("%v/%s", kind, row.name), func(t *testing.T) {
				cfg := IndexConfig{Kind: kind}
				if row.file {
					cfg.PageFile = filepath.Join(t.TempDir(), "churn.pages")
				}
				ix, err := BuildIndex(pts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer ix.Close()
				reg := NewMetricsRegistry()
				ix.RegisterWALMetrics(reg)
				fresh := ix.store.NumPages()
				ids, add := make([]uint64, size), make([]Point, size)
				for b := 0; b < batches; b++ {
					for i := range ids {
						ids[i] = uint64(b*size + i)
					}
					if found, err := ix.DeleteBatch(ids, pts[b*size:(b+1)*size]); err != nil || found != size {
						t.Fatalf("batch %d: deleted %d of %d: %v", b, found, size, err)
					}
					for i := range ids {
						// A midpoint of two data points lies inside the
						// quadtree's fixed root cell.
						j := b*size + i
						p, q := pts[j*7919%n], pts[(j*104729+1)%n]
						ids[i], add[i] = uint64(n+j), Point{(p[0] + q[0]) / 2, (p[1] + q[1]) / 2}
					}
					if err := ix.InsertBatch(ids, add); err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					if row.flushEvery > 0 && (b+1)%row.flushEvery == 0 {
						if err := ix.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				got := ix.store.NumPages()
				g := reg.registry().Snapshot().Gauges
				t.Logf("%d → %d pages after %d batches; free %d, drained %d, deferred refs %d", fresh, got, batches,
					g["storage.free_pages"], g["storage.drained_pages"], g["storage.deferred_refs"])
				if ix.Len() != n {
					t.Fatalf("cardinality drifted to %d", ix.Len())
				}
				if row.flushEvery <= 1 && got > 4*fresh {
					t.Fatalf("store grew from %d to %d pages (> 4×) under constant-cardinality churn", fresh, got)
				}
				if g["storage.free_pages"]+g["storage.drained_pages"] == 0 {
					t.Fatal("the lifecycle gauges report no page on its way back")
				}
			})
		}
	}
}
