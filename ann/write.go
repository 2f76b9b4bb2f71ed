package ann

import (
	"fmt"
	"os"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// This file implements live index updates: durable (WAL-backed)
// Insert/Delete batches with snapshot-isolated queries. The write path
// is single-writer (writeMu); the read path pins the most recently
// published snapshot (mbrqt.Tree.Acquire) for the duration of the query,
// so a query always sees one consistent tree state no matter how many
// write batches commit while it runs.
//
// Durability protocol (file-backed indexes):
//
//  1. Every mutation is appended to the write-ahead log and fsynced
//     BEFORE it is applied to the tree (group commit: one fsync per
//     batch, however large).
//  2. The tree mutates copy-on-write: pages referenced by the last
//     checkpoint (or by any live snapshot) are never overwritten, so the
//     on-disk base state stays intact between checkpoints.
//  3. A checkpoint flushes and syncs all data pages, appends the new
//     header image to the WAL (fsync), then writes the header page and
//     truncates the WAL.
//  4. Recovery (OpenIndex) restores the last WAL header image if one is
//     present, replays the committed WAL suffix onto the base state, and
//     checkpoints — so a crash at ANY instant loses at most the
//     un-fsynced tail of the log, and a batch whose commit fsync
//     returned is never lost.
//
// ErrWriteFailed classifies lost-durability failures (failed fsync,
// failed log append). A batch that failed BEFORE its commit fsync
// returned is indeterminate: after a crash, recovery may surface a
// committed prefix of it. This is the standard contract of write-ahead
// logging; callers that need exactly-once must deduplicate by object id.

// ErrWriteFailed is re-exported from the storage layer: a write or fsync
// failed, so durability of the affected mutation batch is not
// guaranteed. It is not automatically retried — the index refuses
// further writes until reopened, while queries continue on the last
// published snapshot.
var ErrWriteFailed = storage.ErrWriteFailed

// enableLiveUpdates arms the mutation path: the initial published
// version and (when wal is non-nil) the durability protocol. Called
// once, before the index is shared.
func (ix *Index) enableLiveUpdates(wal *storage.WAL) {
	ix.wal = wal
	ix.tree.Publish()
}

// checkpointLocked runs the full checkpoint protocol: data pages flushed
// and synced, header image appended to the WAL and synced, header page
// written and synced, WAL truncated. Caller holds writeMu, with no
// batch in progress.
func (ix *Index) checkpointLocked() error {
	var hook func([]byte) error
	if ix.wal != nil {
		hook = func(metaPage []byte) error {
			if err := ix.wal.AppendMeta(ix.tree.MetaPage(), metaPage); err != nil {
				return err
			}
			return ix.wal.Sync()
		}
	}
	if err := ix.tree.CheckpointWith(hook); err != nil {
		return err
	}
	if ix.wal != nil {
		return ix.wal.Reset()
	}
	return nil
}

// validateMutation checks a batch before anything is logged: an op that
// passes validation must be applicable, so WAL replay cannot hit a
// rejection the original caller never saw. Failures wrap
// ErrInvalidConfig, which the serving layer classifies as BAD_REQUEST.
func validateMutation(t *mbrqt.Tree, ids []ObjectID, pts []Point) error {
	if len(ids) != len(pts) {
		return fmt.Errorf("ann: %d ids for %d points: %w", len(ids), len(pts), ErrInvalidConfig)
	}
	if len(ids) == 0 {
		return fmt.Errorf("ann: empty mutation batch: %w", ErrInvalidConfig)
	}
	dim, space := t.Dim(), t.Space()
	for i, pt := range pts {
		if len(pt) != dim {
			return fmt.Errorf("ann: point %d has dimensionality %d, expected %d: %w", i, len(pt), dim, ErrInvalidConfig)
		}
		if d := nanDim(pt); d >= 0 {
			return fmt.Errorf("ann: point %d is NaN in dimension %d: %w", i, d, ErrInvalidConfig)
		}
		if !space.Contains(geom.Point(pt)) {
			return fmt.Errorf("ann: point %d (%v) lies outside the index space %v (the PR quadtree's root cell is fixed at build time; rebuild with a larger dataset extent): %w", i, pt, space, ErrInvalidConfig)
		}
	}
	return nil
}

// Insert adds one point to a live index. See InsertBatch.
func (ix *Index) Insert(id ObjectID, pt Point) error {
	return ix.InsertBatch([]ObjectID{id}, []Point{pt})
}

// InsertBatch durably adds a batch of points. The whole batch is
// group-committed with a single WAL fsync before any of it is applied;
// when InsertBatch returns nil the batch will survive any crash.
// Queries started before the batch returns see the previous snapshot;
// queries started after see all of it — never a partial batch. IDs are
// not required to be unique; duplicates are indexed independently.
//
// Every point must lie inside the index space fixed at build time (the
// PR decomposition's root cell).
func (ix *Index) InsertBatch(ids []ObjectID, pts []Point) error {
	_, err := ix.commit(ids, pts, (*storage.WAL).AppendInsert, func(t *mbrqt.Tree, id index.ObjectID, pt geom.Point) (bool, error) {
		return true, t.Insert(id, pt)
	})
	return err
}

// Delete removes one point from a live index, reporting whether it was
// found. See DeleteBatch.
func (ix *Index) Delete(id ObjectID, pt Point) (bool, error) {
	n, err := ix.DeleteBatch([]ObjectID{id}, []Point{pt})
	return n == 1, err
}

// DeleteBatch durably removes a batch of points (matched by id AND
// coordinates), returning how many were found. Like InsertBatch it
// group-commits the whole batch with one WAL fsync before applying;
// deleting an absent point is a durable no-op, which keeps replay
// idempotent.
func (ix *Index) DeleteBatch(ids []ObjectID, pts []Point) (int, error) {
	return ix.commit(ids, pts, (*storage.WAL).AppendDelete, (*mbrqt.Tree).Delete)
}

// commit is the one write path: validate → log → fsync → apply →
// publish → maybe checkpoint. logOp appends one op to the WAL and apply
// performs it on the tree, reporting whether it took effect; commit
// returns how many did.
func (ix *Index) commit(ids []ObjectID, pts []Point,
	logOp func(*storage.WAL, uint64, []float64) error,
	apply func(*mbrqt.Tree, index.ObjectID, geom.Point) (bool, error)) (int, error) {
	if err := validateMutation(ix.tree, ids, pts); err != nil {
		return 0, err
	}
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	if ix.writeErr != nil {
		return 0, ix.writeErr
	}
	if err := ix.tree.DrainReclaim(); err != nil {
		return 0, err
	}
	if ix.wal == nil {
		// No durable root for the fence to protect, and no checkpoint
		// will ever come: drained pages are reusable at once.
		ix.tree.Fence()
	} else {
		for i := range ids {
			if err := logOp(ix.wal, ids[i], pts[i]); err != nil {
				return 0, err
			}
		}
		if err := ix.wal.Sync(); err != nil {
			return 0, err
		}
	}
	applied := 0
	for i := range ids {
		ok, err := apply(ix.tree, index.ObjectID(ids[i]), geom.Point(pts[i]))
		if err != nil {
			// The log and the tree have diverged; refuse further writes
			// (recovery on reopen reconciles from the log).
			ix.writeErr = fmt.Errorf("ann: apply failed mid-batch (%v), index needs reopen: %w", err, ErrWriteFailed)
			return applied, ix.writeErr
		}
		if ok {
			applied++
		}
	}
	ix.tree.Publish()
	return applied, ix.maybeCheckpointLocked()
}

// maybeCheckpointLocked enforces IndexConfig.CheckpointEveryBytes: when
// the just-committed batch pushed the WAL past the byte budget, the
// regular checkpoint protocol runs before the batch returns, truncating
// the log. Runs after the batch is published, so a checkpoint failure leaves the
// batch durable AND visible — the error reports only that the log could
// not be folded into the base state, and the next batch (or Flush)
// retries. Caller holds writeMu.
func (ix *Index) maybeCheckpointLocked() error {
	if ix.wal == nil || ix.ckptEveryBytes <= 0 || ix.wal.Size() <= ix.ckptEveryBytes {
		return nil
	}
	if err := ix.checkpointLocked(); err != nil {
		return fmt.Errorf("ann: auto-checkpoint after committed batch: %w", err)
	}
	return nil
}

// Test seams: wrap the freshly opened page store / WAL backend with
// fault injectors before the index touches them. Nil outside tests.
var (
	testWrapStore func(storage.Store) storage.Store
	testWrapWAL   func(storage.WALBackend) storage.WALBackend
)

func wrapStore(s storage.Store) storage.Store {
	if testWrapStore != nil {
		return testWrapStore(s)
	}
	return s
}

func wrapWAL(b storage.WALBackend) storage.WALBackend {
	if testWrapWAL != nil {
		return testWrapWAL(b)
	}
	return b
}

// createWALAt creates a fresh (truncated) log at path.
func createWALAt(path string) (*storage.WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ann: create WAL: %w", err)
	}
	w, err := storage.NewWALOn(wrapWAL(storage.OSWALFile{F: f}))
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// openWALAt opens the log at path, creating it if absent — an index
// closed cleanly by an older version of this library has no WAL file,
// and gets an empty one (nothing to replay).
func openWALAt(path string) (*storage.WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ann: open WAL: %w", err)
	}
	w, err := storage.NewWALOn(wrapWAL(storage.OSWALFile{F: f}))
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}
