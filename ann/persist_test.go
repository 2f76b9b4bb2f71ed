package ann

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"allnn/internal/storage"
)

// TestOpenIndexRoundTrip builds a file-backed index of each kind,
// flushes it, reopens it with OpenIndex, and checks that the reopened
// index answers a self-join identically to the original.
func TestOpenIndexRoundTrip(t *testing.T) {
	pts := randomPoints(31, 400, 2)
	for _, kind := range []IndexKind{MBRQT, RStar} {
		path := filepath.Join(t.TempDir(), "index.pages")
		built, err := BuildIndex(pts, IndexConfig{Kind: kind, PageFile: path, BufferPoolBytes: 512 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SelfAllKNearestNeighborsContext(context.Background(), built, 2, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := built.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := built.Close(); err != nil {
			t.Fatal(err)
		}

		ix, err := OpenIndex(path, IndexConfig{BufferPoolBytes: 512 * 1024})
		if err != nil {
			t.Fatalf("%v: OpenIndex: %v", kind, err)
		}
		if ix.Kind() != kind {
			t.Fatalf("reopened kind = %v, want %v", ix.Kind(), kind)
		}
		if ix.Len() != len(pts) || ix.Dim() != 2 {
			t.Fatalf("%v: reopened Len=%d Dim=%d", kind, ix.Len(), ix.Dim())
		}
		got, err := SelfAllKNearestNeighborsContext(context.Background(), ix, 2, QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: reopened index returned %d results, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("%v: result %d ID %d, want %d", kind, i, got[i].ID, want[i].ID)
			}
			for n := range want[i].Neighbors {
				if got[i].Neighbors[n].ID != want[i].Neighbors[n].ID ||
					math.Abs(got[i].Neighbors[n].Dist-want[i].Neighbors[n].Dist) > 0 {
					t.Fatalf("%v: neighbor mismatch for object %d", kind, want[i].ID)
				}
			}
		}
		ix.RequireNoPinnedFrames(t)
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenIndexErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenIndex(filepath.Join(dir, "missing.pages"), IndexConfig{}); err == nil {
		t.Error("expected error opening a missing file")
	}

	// A file full of garbage must fail the page header check.
	garbage := filepath.Join(dir, "garbage.pages")
	buf := make([]byte, storage.PageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := os.WriteFile(garbage, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndex(garbage, IndexConfig{}); !errors.Is(err, storage.ErrCorruptPage) {
		t.Errorf("garbage file: got %v, want ErrCorruptPage", err)
	}
}

// TestOpenIndexRefusesRStarLog: an R*-tree index is never written, so a
// log beside its page file that holds a write is refused at open, before
// any replay or checkpoint, and the record stays in the log. A log that
// holds only a checkpoint's header image is restored as for MBRQT.
func TestOpenIndexRefusesRStarLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rstar.pages")
	pts := randomPoints(33, 300, 2)
	built, err := BuildIndex(pts, IndexConfig{Kind: RStar, PageFile: path})
	if err != nil {
		t.Fatal(err)
	}
	f, err := built.pool.Get(built.tree.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	header := append([]byte(nil), f.Data()...)
	f.Release()
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	writeLog := func(insert bool) {
		w, err := createWALAt(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		err = w.AppendMeta(built.tree.MetaPage(), header)
		if err == nil && insert {
			err = w.AppendInsert(9000, []float64{1, 2})
		}
		if err == nil {
			err = w.Sync()
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	writeLog(false)
	ix, err := OpenIndex(path, IndexConfig{})
	if err != nil {
		t.Fatalf("header-only log: %v", err)
	}
	if ix.Len() != len(pts) {
		t.Fatalf("header-only log: Len %d, want %d", ix.Len(), len(pts))
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	writeLog(true)
	if _, err := OpenIndex(path, IndexConfig{}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("log holding an insert: %v, want ErrInvalidConfig", err)
	}
	w, err := openWALAt(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, ops, err := w.Recover(); err != nil || len(ops) != 1 || !ops[0].IsWALInsert() || ops[0].ID != 9000 {
		t.Fatalf("after the refused open the log holds %+v (%v), want the one insert", ops, err)
	}
}

func TestIndexStats(t *testing.T) {
	pts := randomPoints(37, 500, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := SelfAllNearestNeighborsContext(context.Background(), ix, QueryConfig{}); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Points != 500 || st.Dim != 2 || st.Kind != MBRQT {
		t.Fatalf("Stats shape = %+v", st)
	}
	if st.PoolHits == 0 {
		t.Error("expected pool hits after a self-join")
	}
	if st.PinnedFrames != 0 {
		t.Errorf("PinnedFrames = %d after queries finished", st.PinnedFrames)
	}
	// The self-join attaches a decoded-node cache; a warm run records hits.
	if st.CacheHits+st.CacheMisses == 0 {
		t.Error("expected node-cache activity after a self-join")
	}
}
