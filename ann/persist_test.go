package ann

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"allnn/internal/rstar"
	"allnn/internal/storage"
)

// TestOpenIndexRoundTrip builds a file-backed index, flushes it, reopens
// it with OpenIndex, and checks that the reopened index answers a
// self-join identically to the original.
func TestOpenIndexRoundTrip(t *testing.T) {
	pts := randomPoints(31, 400, 2)
	path := filepath.Join(t.TempDir(), "index.pages")
	built, err := BuildIndex(pts, IndexConfig{PageFile: path, BufferPoolBytes: 512 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	want, err := JoinAll(context.Background(), built, built, 2, true, QueryConfig{})
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
		t.Fatalf("OpenIndex: %v", err)
	}
	if ix.Len() != len(pts) || ix.Dim() != 2 {
		t.Fatalf("reopened Len=%d Dim=%d", ix.Len(), ix.Dim())
	}
	got, err := JoinAll(context.Background(), ix, ix, 2, true, QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened index returned %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("result %d ID %d, want %d", i, got[i].ID, want[i].ID)
		}
		for n := range want[i].Neighbors {
			if got[i].Neighbors[n].ID != want[i].Neighbors[n].ID ||
				math.Abs(got[i].Neighbors[n].Dist-want[i].Neighbors[n].Dist) > 0 {
				t.Fatalf("neighbor mismatch for object %d", want[i].ID)
			}
		}
	}
	storage.RequireNoPinnedFrames(t, ix.tree.Pool())
	if err := ix.Close(); err != nil {
		t.Fatal(err)
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

// TestOpenIndexForeignOrDamagedHeader: a page file whose pages verify
// but whose first page is no MBRQT header — an R*-tree's, or an MBRQT
// header with a dim out of range — is refused as corrupt, with the
// path and mbrqt.Open's reason in the error, the file is not written,
// and no write-ahead log is left beside it that was not there before.
func TestOpenIndexForeignOrDamagedHeader(t *testing.T) {
	dir := t.TempDir()
	pts := randomPoints(33, 300, 2)

	foreign := filepath.Join(dir, "rstar.pages")
	fs, err := storage.NewFileStore(foreign)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := rstar.BulkLoad(storage.NewBufferPool(fs, 64), geomPoints(pts), nil, rstar.Config{})
	if err == nil {
		err = rt.Flush()
	}
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	damaged := filepath.Join(dir, "damaged.pages")
	built, err := BuildIndex(pts, IndexConfig{PageFile: damaged})
	if err == nil {
		err = built.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the header through the store, so its page checksum holds
	// and only the header's own check can catch the dim.
	fs, err = storage.OpenFileStore(damaged)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, storage.PageSize)
	if err = fs.ReadPage(0, page); err == nil {
		binary.LittleEndian.PutUint32(page[4:], 0)
		err = fs.WritePage(0, page)
	}
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ path, reason string }{
		{foreign, "is not an MBRQT header"},
		{damaged, "header dim 0 out of range"},
	} {
		before, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		walBefore, walErr := os.ReadFile(tc.path + ".wal")
		_, err = OpenIndex(tc.path, IndexConfig{})
		if !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("%s: got %v, want ErrCorruptPage", tc.path, err)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.path) || !strings.Contains(msg, tc.reason) {
			t.Errorf("%s: error %q does not name the path and %q", tc.path, msg, tc.reason)
		}
		if after, err := os.ReadFile(tc.path); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: the refused open changed the page file (%v)", tc.path, err)
		}
		walAfter, err := os.ReadFile(tc.path + ".wal")
		switch {
		case walErr != nil && !errors.Is(err, os.ErrNotExist):
			t.Errorf("%s: the refused open left a write-ahead log (%v)", tc.path, err)
		case walErr == nil && (err != nil || !bytes.Equal(walAfter, walBefore)):
			t.Errorf("%s: the refused open changed the write-ahead log that was there (%v)", tc.path, err)
		}
	}
}

func TestIndexStats(t *testing.T) {
	pts := randomPoints(37, 500, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, err := JoinAll(context.Background(), ix, ix, 1, true, QueryConfig{}); err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Points != 500 || st.Dim != 2 {
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
