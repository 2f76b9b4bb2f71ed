package ann

import (
	"errors"
	"fmt"
	"os"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// OpenIndex opens an index previously built with IndexConfig.PageFile,
// skipping the bulk-load entirely — the way a long-lived server brings a
// prebuilt index online. The file's physical page framing is verified on
// open (and every page read re-verifies its checksum), so a damaged or
// foreign file surfaces as a clean error wrapping ErrCorruptPage instead
// of reaching the index decoders, and so does a file whose header is
// not an MBRQT's. cfg.PageFile is ignored.
//
// OpenIndex also runs crash recovery: the write-ahead log next to the
// page file (<path>.wal) is scanned, a torn tail from an interrupted
// append is truncated away, the last checkpoint's header image is
// restored if its write to the page file never completed, and every
// committed mutation since that checkpoint is replayed — then the
// recovered state is checkpointed, so recovery work is never repeated.
// The result is exactly the state after the last mutation batch whose
// commit was acknowledged (plus, possibly, a committed prefix of an
// unacknowledged batch that was interrupted mid-fsync).
func OpenIndex(path string, cfg IndexConfig) (*Index, error) {
	fs, err := storage.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	store := wrapStore(fs)
	// A refused open removes the log only if it made it: one that was
	// already there may hold the only copy of the checkpoint's header.
	walPath := path + ".wal"
	_, statErr := os.Stat(walPath)
	created := errors.Is(statErr, os.ErrNotExist)
	wal, err := openWALAt(walPath)
	fail := func(err error) (*Index, error) {
		if wal != nil {
			wal.Close()
		}
		store.Close()
		if created {
			os.Remove(walPath) // best effort: the open has failed already
		}
		return nil, err
	}
	if err != nil {
		return fail(err)
	}
	snap, ops, err := wal.Recover()
	if err != nil {
		return fail(fmt.Errorf("ann: WAL recovery: %w", err))
	}
	if snap != nil {
		// The checkpoint's header image reached the WAL but its write to
		// the page file may not have (a crash between the two is exactly
		// the window the WAL copy exists for). Restore it before the tree
		// decodes the header — idempotent when the write did complete.
		if err := store.WritePage(snap.PageID, snap.Page); err != nil {
			return fail(fmt.Errorf("ann: restore checkpoint header: %w", err))
		}
		if err := store.Sync(); err != nil {
			return fail(fmt.Errorf("ann: restore checkpoint header: %w", err))
		}
	}

	poolBytes := cfg.BufferPoolBytes
	if poolBytes <= 0 {
		poolBytes = 64 << 20
	}
	pool := storage.NewBufferPool(store, storage.FramesForBytes(poolBytes))

	// The meta page of a bulk-loaded tree is the first page of its store.
	t, err := mbrqt.Open(pool, 0)
	if err != nil {
		return fail(fmt.Errorf("ann: open %s: %w", path, err))
	}
	ix := &Index{tree: t, store: store, ckptEveryBytes: cfg.CheckpointEveryBytes}

	ix.enableLiveUpdates(wal)
	if snap != nil || len(ops) > 0 {
		for _, op := range ops {
			switch {
			case op.IsWALInsert():
				err = t.Insert(index.ObjectID(op.ID), geom.Point(op.Point))
			case op.IsWALDelete():
				_, err = t.Delete(index.ObjectID(op.ID), geom.Point(op.Point))
			}
			if err != nil {
				return fail(fmt.Errorf("ann: WAL replay: %w", err))
			}
		}
		t.Publish()
		// Fold the replayed state into a fresh checkpoint so the next open
		// starts clean; this also truncates the log.
		if err := ix.checkpointLocked(); err != nil {
			return fail(fmt.Errorf("ann: post-recovery checkpoint: %w", err))
		}
	}
	// The tree now equals its durable image; the free list is not part of
	// the image, so every page it does not reach — dead when the previous
	// process stopped, or claimed and never checkpointed — is found again.
	if err := t.RebuildFree(); err != nil {
		return fail(fmt.Errorf("ann: rebuild free list: %w", err))
	}
	return ix, nil
}

// Flush checkpoints the index: all updates since the previous checkpoint
// become part of the durable base state in the page file and the
// write-ahead log is truncated. After a Flush the page file can be
// reopened with OpenIndex — though that is equally true at any instant,
// via WAL replay; Flush just bounds the replay work, and lets the pages
// of the previous checkpoint that the folded-in batches superseded be
// reused (they wait for a checkpoint's fence; pages claimed and
// superseded in between do not). An in-memory index has nothing to make
// durable and reuses superseded pages at every batch; Flush on it only
// runs the same fence.
func (ix *Index) Flush() error {
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.writeErr != nil {
		return ix.writeErr
	}
	return ix.checkpointLocked()
}
