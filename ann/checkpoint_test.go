package ann

import (
	"os"
	"path/filepath"
	"testing"
)

// TestAutoCheckpointBoundsWAL drives a sustained insert load against a
// file-backed index configured with a small CheckpointEveryBytes budget
// and verifies the policy actually bounds the log: the WAL shrinks
// (truncates) repeatedly instead of growing monotonically, the
// checkpoint counter advances, the observed log size never exceeds the
// budget between batches, and the index reopens with every insert
// intact.
func TestAutoCheckpointBoundsWAL(t *testing.T) {
	const (
		budget    = int64(2 << 10)
		batches   = 40
		batchSize = 8
	)
	t.Run("MBRQT", func(t *testing.T) {
		base := basePoints(81, 64, 2)
		path := filepath.Join(t.TempDir(), "auto.pages")
		ix, err := BuildIndex(base, IndexConfig{PageFile: path, CheckpointEveryBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		startCkpts := ix.Stats().WALCheckpoints

		shrank := false
		prev := ix.wal.Size()
		nextID := uint64(5000)
		for batch := 0; batch < batches; batch++ {
			pts := randomPoints(int64(300+batch), batchSize, 2)
			ids := make([]uint64, batchSize)
			for i := range ids {
				ids[i] = nextID
				nextID++
			}
			if err := ix.InsertBatch(ids, pts); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			sz := ix.wal.Size()
			if sz < prev {
				shrank = true
			}
			// The triggering batch checkpoints before returning, so a
			// caller can never observe the log above its budget.
			if sz > budget {
				t.Fatalf("batch %d: WAL at %d bytes exceeds the %d-byte budget", batch, sz, budget)
			}
			prev = sz
		}
		if !shrank {
			t.Fatalf("WAL never shrank across %d batches (final size %d)", batches, prev)
		}
		if got := ix.Stats().WALCheckpoints; got <= startCkpts {
			t.Fatalf("checkpoint counter stuck at %d despite sustained load", got)
		}
		if fi, err := os.Stat(path + ".wal"); err != nil {
			t.Fatal(err)
		} else if fi.Size() > budget+4096 {
			t.Fatalf("WAL file is %d bytes on disk, budget is %d", fi.Size(), budget)
		}
		wantLen := ix.Len()
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := OpenIndex(path, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if got := re.Len(); got != wantLen {
			t.Fatalf("reopened index holds %d points, want %d", got, wantLen)
		}
		if got := int64(64 + batches*batchSize); int64(wantLen) != got {
			t.Fatalf("index holds %d points before close, want %d", wantLen, got)
		}
	})
}

// TestAutoCheckpointDisabledByDefault verifies the zero-value config
// leaves checkpoint cadence manual: the WAL grows monotonically across
// batches until an explicit Flush truncates it.
func TestAutoCheckpointDisabledByDefault(t *testing.T) {
	base := basePoints(82, 64, 2)
	path := filepath.Join(t.TempDir(), "manual.pages")
	ix, err := BuildIndex(base, IndexConfig{PageFile: path})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	prev := ix.wal.Size()
	nextID := uint64(9000)
	for batch := 0; batch < 10; batch++ {
		pts := randomPoints(int64(400+batch), 8, 2)
		ids := make([]uint64, len(pts))
		for i := range ids {
			ids[i] = nextID
			nextID++
		}
		if err := ix.InsertBatch(ids, pts); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		sz := ix.wal.Size()
		if sz <= prev {
			t.Fatalf("batch %d: WAL did not grow (%d -> %d) with auto-checkpoint disabled", batch, prev, sz)
		}
		prev = sz
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if sz := ix.wal.Size(); sz != 0 {
		t.Fatalf("WAL holds %d bytes after explicit Flush", sz)
	}
}
