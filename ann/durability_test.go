package ann

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allnn/internal/storage"
)

// basePoints returns a dataset whose bounding box is pinned to
// [0,100]^dim (two corner sentinels), so the MBRQT root cell fixed at
// build time covers every point randomPoints can later generate.
func basePoints(seed int64, n, dim int) []Point {
	pts := randomPoints(seed, n, dim)
	lo, hi := make(Point, dim), make(Point, dim)
	for d := range hi {
		hi[d] = 100
	}
	pts[0], pts[1] = lo, hi
	return pts
}

// mutation is one step of a write scenario: an insert or delete batch,
// or a checkpoint (Flush) when ids is nil.
type mutation struct {
	insert bool
	ids    []uint64
	pts    []Point
}

func (m mutation) isFlush() bool { return m.ids == nil }

// scenario builds the deterministic step sequence the recovery tests
// replay: inserts, deletes of base and inserted points, and interleaved
// checkpoints.
func scenario(base []Point) []mutation {
	batch := func(firstID uint64, seed int64, n int) mutation {
		m := mutation{insert: true, pts: randomPoints(seed, n, len(base[0]))}
		for i := 0; i < n; i++ {
			m.ids = append(m.ids, firstID+uint64(i))
		}
		return m
	}
	insA := batch(1000, 101, 20)
	insB := batch(1100, 102, 20)
	insC := batch(1200, 103, 20)
	delBase := mutation{insert: false}
	for i := 5; i < 25; i++ {
		delBase.ids = append(delBase.ids, uint64(i))
		delBase.pts = append(delBase.pts, base[i])
	}
	delA := mutation{insert: false, ids: insA.ids[:10], pts: insA.pts[:10]}
	return []mutation{
		insA,
		delBase,
		{}, // flush
		insB,
		{}, // flush
		delA,
		insC,
	}
}

// churnScenario is the second crash scenario: two stretches of 22
// batches — delete the 8 oldest points, insert 8 new ones, in turn —
// with a checkpoint before, between and none after. Inside a stretch a
// page is claimed, superseded, freed with no fence and claimed again
// (its dirty frame discarded, never written); across the checkpoint the
// same pages are old and wait for its fence.
func churnScenario(base []Point) []mutation {
	const size, stretch = 8, 22
	steps := []mutation{{}}
	for b := 0; b < 2*stretch; b++ {
		m := mutation{insert: b%2 == 1}
		for i := 0; i < size; i++ {
			// Batch b deletes what is oldest: the base, ids 2 up (0 and 1
			// pin the MBRQT's root cell).
			id, pt := uint64(2+b/2*size+i), base[2+b/2*size+i]
			if m.insert {
				id, pt = uint64(5000+b*size+i), randomPoints(int64(200+b), size, len(base[0]))[i]
			}
			m.ids, m.pts = append(m.ids, id), append(m.pts, pt)
		}
		steps = append(steps, m)
		if b == stretch-1 {
			steps = append(steps, mutation{})
		}
	}
	return steps
}

// applyStep runs one scenario step against a live index.
func applyStep(ix *Index, m mutation) error {
	switch {
	case m.isFlush():
		return ix.Flush()
	case m.insert:
		return ix.InsertBatch(m.ids, m.pts)
	default:
		_, err := ix.DeleteBatch(m.ids, m.pts)
		return err
	}
}

// stepLen returns the signed size change of a fully applied step.
func stepLen(m mutation) int {
	if m.isFlush() {
		return 0
	}
	if m.insert {
		return len(m.ids)
	}
	return -len(m.ids)
}

// buildReference replays base + the acked steps (and, when the crash
// interrupted a batch, its first `prefix` committed ops) onto a fresh
// in-memory index. Tree shape is a deterministic function of the op
// sequence, so the reference is byte-identical to a recovered index.
func buildReference(t *testing.T, base []Point, steps []mutation, failed, prefix int) *Index {
	t.Helper()
	ref, err := BuildIndex(base, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range steps[:failed] {
		if m.isFlush() {
			continue
		}
		if err := applyStep(ref, m); err != nil {
			t.Fatalf("reference step: %v", err)
		}
	}
	if failed < len(steps) && prefix > 0 {
		m := steps[failed]
		p := mutation{insert: m.insert, ids: m.ids[:prefix], pts: m.pts[:prefix]}
		if err := applyStep(ref, p); err != nil {
			t.Fatalf("reference prefix: %v", err)
		}
	}
	return ref
}

// requireSameJoin asserts two indexes answer a k=2 self-join with
// identical ids and bit-identical distances.
func requireSameJoin(t *testing.T, label string, got, want *Index) {
	t.Helper()
	join := func(ix *Index) []Result {
		res, err := JoinAll(context.Background(), ix, ix, 2, true, QueryConfig{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: self-join: %v", label, err)
		}
		sort.Slice(res, func(a, b int) bool { return res[a].ID < res[b].ID })
		return res
	}
	g, w := join(got), join(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d results, want %d", label, len(g), len(w))
	}
	for i := range w {
		if g[i].ID != w[i].ID {
			t.Fatalf("%s: result %d has ID %d, want %d", label, i, g[i].ID, w[i].ID)
		}
		if len(g[i].Neighbors) != len(w[i].Neighbors) {
			t.Fatalf("%s: object %d has %d neighbors, want %d", label, w[i].ID, len(g[i].Neighbors), len(w[i].Neighbors))
		}
		for n := range w[i].Neighbors {
			if g[i].Neighbors[n].ID != w[i].Neighbors[n].ID || g[i].Neighbors[n].Dist != w[i].Neighbors[n].Dist {
				t.Fatalf("%s: object %d neighbor %d = (%d, %v), want (%d, %v)",
					label, w[i].ID, n, g[i].Neighbors[n].ID, g[i].Neighbors[n].Dist,
					w[i].Neighbors[n].ID, w[i].Neighbors[n].Dist)
			}
		}
	}
}

// checkIntegrity runs the backing tree's structural verification.
func checkIntegrity(t *testing.T, label string, ix *Index) {
	t.Helper()
	if err := ix.tree.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity: %v", label, err)
	}
}

// TestLiveInsertDelete exercises the mutation API end to end on both
// stores, verifying results against brute force.
func TestLiveInsertDelete(t *testing.T) {
	base := basePoints(71, 120, 2)
	for _, file := range []bool{false, true} {
		label := fmt.Sprintf("file=%v", file)
		cfg := IndexConfig{}
		if file {
			cfg.PageFile = filepath.Join(t.TempDir(), "live.pages")
		}
		ix, err := BuildIndex(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := append([]Point{}, base...)
		liveIDs := make([]uint64, len(base))
		for i := range liveIDs {
			liveIDs[i] = uint64(i)
		}

		add := randomPoints(72, 30, 2)
		addIDs := make([]uint64, len(add))
		for i := range addIDs {
			addIDs[i] = 500 + uint64(i)
		}
		if err := ix.InsertBatch(addIDs, add); err != nil {
			t.Fatalf("%s: insert: %v", label, err)
		}
		live = append(live, add...)
		liveIDs = append(liveIDs, addIDs...)

		found, err := ix.DeleteBatch(liveIDs[10:30], live[10:30])
		if err != nil {
			t.Fatalf("%s: delete: %v", label, err)
		}
		if found != 20 {
			t.Fatalf("%s: delete found %d, want 20", label, found)
		}
		// Deleting the same points again is a durable no-op.
		if found, err = ix.DeleteBatch(liveIDs[10:30], live[10:30]); err != nil || found != 0 {
			t.Fatalf("%s: re-delete found %d, err %v", label, found, err)
		}
		live = append(live[:10:10], live[30:]...)
		liveIDs = append(liveIDs[:10:10], liveIDs[30:]...)

		if ix.Len() != len(live) {
			t.Fatalf("%s: Len %d, want %d", label, ix.Len(), len(live))
		}
		checkIntegrity(t, label, ix)

		// Every live point's nearest neighbor matches brute force.
		for probe := 0; probe < len(live); probe += 13 {
			nb, err := ix.NearestNeighbors(live[probe], 1)
			if err != nil {
				t.Fatalf("%s: NN: %v", label, err)
			}
			bestID, bestD := uint64(0), -1.0
			for j, q := range live {
				d := 0.0
				for dd := range q {
					d += (q[dd] - live[probe][dd]) * (q[dd] - live[probe][dd])
				}
				if bestD < 0 || d < bestD {
					bestD, bestID = d, liveIDs[j]
				}
			}
			if len(nb) != 1 || nb[0].ID != bestID {
				t.Fatalf("%s: NN(%d) = %v, want id %d", label, probe, nb, bestID)
			}
		}

		// Inserting outside the MBRQT's fixed root cell is rejected
		// before anything is logged.
		if err := ix.Insert(9999, Point{500, 500}); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%s: out-of-space insert: %v", label, err)
		}
		if err := ix.Insert(9998, Point{1, 2, 3}); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%s: wrong-dim insert: %v", label, err)
		}

		storage.RequireNoPinnedFrames(t, ix.tree.Pool())
		if err := ix.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
	}
}

// TestSnapshotIsolation pins a pre-write snapshot mid-query and checks
// the query completes against it even though a batch commits while the
// result stream is paused.
func TestSnapshotIsolation(t *testing.T) {
	base := basePoints(73, 200, 2)
	ix, err := BuildIndex(base, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inserted := false
	count := 0
	err = Join(t.Context(), ix, ix, 1, true, QueryConfig{Parallelism: 1}, func(Result) error {
		count++
		if !inserted {
			// The query has pinned its snapshot; commit a batch now.
			inserted = true
			return ix.InsertBatch([]uint64{5000}, []Point{{50, 50}})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if count != len(base) {
		t.Fatalf("snapshot query saw %d results, want %d", count, len(base))
	}
	if ix.Len() != len(base)+1 {
		t.Fatalf("post-write Len %d", ix.Len())
	}
	storage.RequireNoPinnedFrames(t, ix.tree.Pool())
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryAfterCrash kills an index (no Flush, no Close) after a
// sequence of committed batches and checks that OpenIndex rebuilds the
// exact acknowledged state from the WAL.
func TestRecoveryAfterCrash(t *testing.T) {
	base := basePoints(74, 250, 2)
	steps := scenario(base)
	path := filepath.Join(t.TempDir(), "crash.pages")
	ix, err := BuildIndex(base, IndexConfig{PageFile: path})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range steps {
		if err := applyStep(ix, m); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// Crash: abandon without Flush or Close.
	ix = nil

	rec, err := OpenIndex(path, IndexConfig{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := rec.Stats(); got.WALReplayed == 0 {
		t.Fatal("recovery replayed no records")
	}
	ref := buildReference(t, base, steps, len(steps), 0)
	requireSameJoin(t, "recovered", rec, ref)
	checkIntegrity(t, "recovered", rec)
	storage.RequireNoPinnedFrames(t, rec.tree.Pool())

	// Clean close checkpoints; the next open has nothing to replay.
	if err := rec.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	again, err := OpenIndex(path, IndexConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := again.Stats(); got.WALReplayed != 0 {
		t.Fatalf("clean reopen replayed %d records", got.WALReplayed)
	}
	requireSameJoin(t, "clean reopen", again, ref)
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}

// chaosRun is chaosRunSteps over the first scenario. It returns false
// when the build itself failed (the fault fired before there was
// anything to recover).
func chaosRun(t *testing.T, label string, wrapStoreF func(storage.Store) storage.Store, wrapWALF func(storage.WALBackend) storage.WALBackend) bool {
	t.Helper()
	base := basePoints(75, 250, 2)
	return chaosRunSteps(t, IndexConfig{}, label, base, scenario(base), wrapStoreF, wrapWALF) >= 0
}

// chaosRunSteps executes steps against a fault-injected file index with
// cfg's pool over base, crashes at the first failure, recovers with
// injection disabled, and verifies the recovered index is byte-identical
// to a never-crashed reference holding the acknowledged ops (plus any
// committed prefix of the failed batch). It returns the step that failed: len(steps) when
// none did (the crash then comes after the last one), -1 when the build
// already failed.
func chaosRunSteps(t *testing.T, cfg IndexConfig, label string, base []Point, steps []mutation,
	wrapStoreF func(storage.Store) storage.Store, wrapWALF func(storage.WALBackend) storage.WALBackend) int {
	t.Helper()
	cfg.PageFile = filepath.Join(t.TempDir(), "chaos.pages")

	testWrapStore, testWrapWAL = wrapStoreF, wrapWALF
	ix, buildErr := BuildIndex(base, cfg)
	failedStep := -1
	if buildErr == nil {
		for i, m := range steps {
			if err := applyStep(ix, m); err != nil {
				failedStep = i
				break
			}
		}
		if failedStep >= 0 {
			// The writer is broken but queries must still serve the last
			// published snapshot, and release it cleanly.
			if _, err := JoinAll(context.Background(), ix, ix, 1, true, QueryConfig{}); err != nil {
				t.Fatalf("%s: query after write failure: %v", label, err)
			}
			storage.RequireNoPinnedFrames(t, ix.tree.Pool())
		}
	}
	testWrapStore, testWrapWAL = nil, nil
	if buildErr != nil {
		return -1
	}
	// Crash: abandon ix without Close.
	ix = nil
	if failedStep == -1 {
		failedStep = len(steps)
	}

	rec, err := OpenIndex(cfg.PageFile, IndexConfig{BufferPoolBytes: cfg.BufferPoolBytes})
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	ackedLen := len(base)
	for _, m := range steps[:failedStep] {
		ackedLen += stepLen(m)
	}
	// The failed batch is indeterminate: recovery may surface any
	// committed prefix of it (a flush step changes nothing).
	prefix := 0
	if failedStep < len(steps) && !steps[failedStep].isFlush() {
		if steps[failedStep].insert {
			prefix = rec.Len() - ackedLen
		} else {
			prefix = ackedLen - rec.Len()
		}
		if prefix < 0 || prefix > len(steps[failedStep].ids) {
			t.Fatalf("%s: recovered Len %d outside [acked %d, acked+batch]", label, rec.Len(), ackedLen)
		}
	} else if rec.Len() != ackedLen {
		t.Fatalf("%s: recovered Len %d, want %d", label, rec.Len(), ackedLen)
	}

	ref := buildReference(t, base, steps, failedStep, prefix)
	requireSameJoin(t, label, rec, ref)
	checkIntegrity(t, label, rec)
	storage.RequireNoPinnedFrames(t, rec.tree.Pool())
	if err := rec.Close(); err != nil {
		t.Fatalf("%s: close: %v", label, err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	return failedStep
}

// chaosChurnSweep runs the churn scenario with the n-th operation of one
// kind failing, for n = 1, 2, … until a run gets through every step
// unharmed: the sweep has then passed the scenario's last such operation.
func chaosChurnSweep(t *testing.T, cfg IndexConfig, fault string, wrapStoreF func(n int) func(storage.Store) storage.Store, wrapWALF func(n int) func(storage.WALBackend) storage.WALBackend) {
	t.Helper()
	base := basePoints(77, 1000, 2)
	steps := churnScenario(base)
	for n := 1; ; n++ {
		var ws func(storage.Store) storage.Store
		var ww func(storage.WALBackend) storage.WALBackend
		if wrapStoreF != nil {
			ws = wrapStoreF(n)
		} else {
			ww = wrapWALF(n)
		}
		failed := chaosRunSteps(t, cfg, fmt.Sprintf("churn/%s-%d", fault, n), base, steps, ws, ww)
		if failed == len(steps) {
			t.Logf("churn/%s: %d kill points", fault, n-1)
			return
		}
	}
}

// TestChaosCrashRecoveryWALFaults sweeps the crash point across every
// WAL write of the scenario, covering torn group commits (partial batch
// on disk), clean write failures, and failed fsyncs.
func TestChaosCrashRecoveryWALFaults(t *testing.T) {
	for n := 1; n <= 14; n++ {
		// Torn write: the n-th WAL write persists only a prefix.
		keep := (n * 37) % 90
		label := fmt.Sprintf("torn-write-%d/keep-%d", n, keep)
		chaosRun(t, label, nil, func(b storage.WALBackend) storage.WALBackend {
			return storage.NewFaultWALFile(b, storage.WALFaultConfig{TornWriteAfter: n, TornKeepBytes: keep})
		})
		// Failed fsync: the write may be fully on disk, but the batch
		// was never acknowledged.
		label = fmt.Sprintf("fail-sync-%d", n)
		chaosRun(t, label, nil, func(b storage.WALBackend) storage.WALBackend {
			return storage.NewFaultWALFile(b, storage.WALFaultConfig{FailSyncsAfter: n})
		})
	}
	// Behind 6 frames dirty pages — young ones that live long enough
	// among them — are written by eviction in the middle of a batch
	// and read back, and the query after the failure evicts too.
	small := IndexConfig{BufferPoolBytes: 6 * storage.PageSize}
	chaosChurnSweep(t, small, "torn-write", nil, func(n int) func(storage.WALBackend) storage.WALBackend {
		return func(b storage.WALBackend) storage.WALBackend {
			return storage.NewFaultWALFile(b, storage.WALFaultConfig{TornWriteAfter: n, TornKeepBytes: (n * 37) % 90})
		}
	})
	chaosChurnSweep(t, small, "fail-sync", nil, func(n int) func(storage.WALBackend) storage.WALBackend {
		return func(b storage.WALBackend) storage.WALBackend {
			return storage.NewFaultWALFile(b, storage.WALFaultConfig{FailSyncsAfter: n})
		}
	})
}

// TestChaosCrashRecoveryStoreFaults sweeps the crash point across the
// page-store writes and fsyncs of the scenario's checkpoints — the
// mid-Flush crash windows (data pages partially written, header page
// written before/after its WAL copy).
func TestChaosCrashRecoveryStoreFaults(t *testing.T) {
	ran := 0
	for n := 1; n <= 40; n += 3 {
		label := fmt.Sprintf("fail-page-write-%d", n)
		if chaosRun(t, label, func(s storage.Store) storage.Store {
			return storage.NewFaultStore(s, storage.FaultConfig{FailWritesAfter: n})
		}, nil) {
			ran++
		}
	}
	for n := 1; n <= 8; n++ {
		label := fmt.Sprintf("fail-store-sync-%d", n)
		if chaosRun(t, label, func(s storage.Store) storage.Store {
			return storage.NewFaultStore(s, storage.FaultConfig{FailSyncsAfter: n})
		}, nil) {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("every store-fault run died during build; no recovery exercised")
	}
	chaosChurnSweep(t, IndexConfig{}, "fail-page-write", func(n int) func(storage.Store) storage.Store {
		return func(s storage.Store) storage.Store {
			return storage.NewFaultStore(s, storage.FaultConfig{FailWritesAfter: n})
		}
	}, nil)
	chaosChurnSweep(t, IndexConfig{}, "fail-store-sync", func(n int) func(storage.Store) storage.Store {
		return func(s storage.Store) storage.Store {
			return storage.NewFaultStore(s, storage.FaultConfig{FailSyncsAfter: n})
		}
	}, nil)
}

// TestFailedCheckpointEndsYouth fails a checkpoint at its very last
// step — the sync after the header page write — and lets the writer go
// on: the image that checkpoint staged is recoverable (its header is in
// the log), so the pages it reaches must have stopped being young, or
// the batches that follow free and overwrite them with no fence and the
// crash after them recovers onto garbage.
func TestFailedCheckpointEndsYouth(t *testing.T) {
	base := basePoints(78, 2000, 2)
	steps := churnScenario(base)
	var faulty *storage.FaultStore
	testWrapStore = func(s storage.Store) storage.Store {
		faulty = storage.NewFaultStore(s, storage.FaultConfig{})
		return faulty
	}
	// Behind 12 frames a reclaimed page's new bytes reach the disk by
	// eviction, long before any checkpoint.
	cfg := IndexConfig{BufferPoolBytes: 12 * storage.PageSize, PageFile: filepath.Join(t.TempDir(), "youth.pages")}
	ix, err := BuildIndex(base, cfg)
	testWrapStore = nil
	if err != nil {
		t.Fatal(err)
	}
	applied := 0
	for ; applied < 12; applied++ {
		if err := applyStep(ix, steps[applied]); err != nil {
			t.Fatalf("step %d: %v", applied, err)
		}
	}
	// A checkpoint syncs the store twice; commits never do.
	faulty.SetConfig(storage.FaultConfig{FailSyncsAfter: 2})
	if err := ix.Flush(); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("Flush with a failing last sync: %v, want ErrWriteFailed", err)
	}
	faulty.SetConfig(storage.FaultConfig{})
	for ; applied < len(steps); applied++ {
		if steps[applied].isFlush() {
			continue
		}
		if err := applyStep(ix, steps[applied]); err != nil {
			t.Fatalf("step %d after the failed checkpoint: %v", applied, err)
		}
	}
	ix = nil // crash

	rec, err := OpenIndex(cfg.PageFile, IndexConfig{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	ref := buildReference(t, base, steps, len(steps), 0)
	requireSameJoin(t, "recovered", rec, ref)
	checkIntegrity(t, "recovered", rec)
	storage.RequireNoPinnedFrames(t, rec.tree.Pool())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFailedClassification checks the durability-failure contract:
// the error wraps ErrWriteFailed, later writes fail fast, and queries
// keep serving the last published snapshot.
func TestWriteFailedClassification(t *testing.T) {
	base := basePoints(76, 150, 2)
	path := filepath.Join(t.TempDir(), "wf.pages")
	// Sync 1 writes the WAL header, sync 2 is the build checkpoint's
	// meta append, sync 3 its WAL reset; sync 4 is the first batch's
	// group commit.
	testWrapWAL = func(b storage.WALBackend) storage.WALBackend {
		return storage.NewFaultWALFile(b, storage.WALFaultConfig{FailSyncsAfter: 4})
	}
	ix, err := BuildIndex(base, IndexConfig{PageFile: path})
	testWrapWAL = nil
	if err != nil {
		t.Fatal(err)
	}
	err = ix.InsertBatch([]uint64{2000, 2001}, []Point{{1, 1}, {2, 2}})
	if !errors.Is(err, ErrWriteFailed) || !errors.Is(err, storage.ErrWriteFailed) {
		t.Fatalf("insert after fsync fault: %v, want ErrWriteFailed", err)
	}
	if err := ix.Insert(2002, Point{3, 3}); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("second insert: %v, want fast ErrWriteFailed", err)
	}
	if ix.Len() != len(base) {
		t.Fatalf("failed batch changed Len to %d", ix.Len())
	}
	if _, err := JoinAll(context.Background(), ix, ix, 1, true, QueryConfig{}); err != nil {
		t.Fatalf("query after write failure: %v", err)
	}
	storage.RequireNoPinnedFrames(t, ix.tree.Pool())
	// The failed batch is indeterminate: its write may have reached the
	// file even though the fsync was never acknowledged.
	rec, err := OpenIndex(path, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Len(); n != len(base) && n != len(base)+2 {
		t.Fatalf("recovered Len %d, want %d or %d", n, len(base), len(base)+2)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWritesAndQueries runs a writer committing insert
// batches against parallel query goroutines on GOMAXPROCS=4. Every
// query must observe a published batch boundary — never a partial
// batch — and the final state must hold everything. Run with -race.
func TestConcurrentWritesAndQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		batches   = 25
		batchSize = 8
	)
	base := basePoints(77, 200, 2)
	path := filepath.Join(t.TempDir(), "conc.pages")
	ix, err := BuildIndex(base, IndexConfig{PageFile: path})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	errCh := make(chan error, 16)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		pts := randomPoints(78, batches*batchSize, 2)
		for b := 0; b < batches; b++ {
			ids := make([]uint64, batchSize)
			for i := range ids {
				ids[i] = 3000 + uint64(b*batchSize+i)
			}
			if err := ix.InsertBatch(ids, pts[b*batchSize:(b+1)*batchSize]); err != nil {
				report(fmt.Errorf("writer batch %d: %w", b, err))
				return
			}
			if b == batches/2 {
				if err := ix.Flush(); err != nil {
					report(fmt.Errorf("mid-run flush: %w", err))
					return
				}
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				switch r {
				case 0:
					res, err := JoinAll(context.Background(), ix, ix, 1, true, QueryConfig{Parallelism: 2})
					if err != nil {
						report(fmt.Errorf("reader join: %w", err))
						return
					}
					if d := len(res) - len(base); d < 0 || d%batchSize != 0 {
						report(fmt.Errorf("reader join saw %d results: not a batch boundary", len(res)))
						return
					}
				case 1:
					if _, err := ix.NearestNeighbors(Point{50, 50}, 3); err != nil {
						report(fmt.Errorf("reader NN: %w", err))
						return
					}
				default:
					if d := ix.Len() - len(base); d < 0 || d%batchSize != 0 {
						report(fmt.Errorf("reader Len %d: not a batch boundary", ix.Len()))
						return
					}
					_ = ix.Stats()
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("%v", err)
	default:
	}

	if got, want := ix.Len(), len(base)+batches*batchSize; got != want {
		t.Fatalf("final Len %d, want %d", got, want)
	}
	checkIntegrity(t, "concurrent", ix)
	// All pins must drain once the queries finish.
	if st := ix.Stats(); st.SnapshotPins != 0 {
		t.Fatalf("%d snapshot pins left", st.SnapshotPins)
	}
	storage.RequireNoPinnedFrames(t, ix.tree.Pool())
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenIndex(path, IndexConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, want := rec.Len(), len(base)+batches*batchSize; got != want {
		t.Fatalf("reopened Len %d, want %d", got, want)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWALReplay measures crash recovery: open an index whose WAL
// holds b.N uncheckpointed single-point inserts and replay them. The
// reported ns/op is the full OpenIndex (tree open + replay + the
// post-recovery checkpoint) amortised per logged operation.
func BenchmarkWALReplay(b *testing.B) {
	if b.N > 200_000 {
		b.Skip("WAL op count capped")
	}
	base := basePoints(80, 2, 2)
	path := filepath.Join(b.TempDir(), "replay.pages")
	ix, err := BuildIndex(base, IndexConfig{PageFile: path})
	if err != nil {
		b.Fatal(err)
	}
	pts := randomPoints(81, b.N, 2)
	ids := make([]uint64, b.N)
	for i := range ids {
		ids[i] = 100 + uint64(i)
	}
	if err := ix.InsertBatch(ids, pts); err != nil {
		b.Fatal(err)
	}
	// Crash: abandon without Close so the WAL still holds every insert.
	ix = nil

	b.ResetTimer()
	rec, err := OpenIndex(path, IndexConfig{})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	st := rec.Stats()
	if st.WALReplayed != uint64(b.N) {
		b.Fatalf("replayed %d records, want %d", st.WALReplayed, b.N)
	}
	b.ReportMetric(float64(st.WALReplayNs)/float64(b.N), "replay-ns/op")
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestCloseWaitsForReaders closes a file-backed index while a serial
// self-join over it streams, stalled at row 100: Close must wait for the
// join's last row and leave the join whole, then refuse every later query,
// write and Close with ErrClosed, while Len and Stats still answer. An
// in-memory index refuses a kNN after Close the same way.
func TestCloseWaitsForReaders(t *testing.T) {
	const n = 20_000
	pts := randomPoints(53, n, 2)
	path := filepath.Join(t.TempDir(), "close.pages")
	ix, err := BuildIndex(pts, IndexConfig{PageFile: path, BufferPoolBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var rows atomic.Int64
	closed := make(chan error, 1)
	err = Join(context.Background(), ix, ix, 1, true, QueryConfig{Parallelism: 1}, func(Result) error {
		if rows.Add(1) == 100 {
			go func() {
				err := ix.Close()
				if got := rows.Load(); got != n {
					err = fmt.Errorf("Close returned after %d of %d rows (err %v)", got, n, err)
				}
				closed <- err
			}()
			time.Sleep(50 * time.Millisecond)
			select {
			case err := <-closed:
				return fmt.Errorf("Close returned during the join: %v", err)
			default:
			}
		}
		return nil
	})
	if err != nil || rows.Load() != n {
		t.Fatalf("the join emitted %d of %d rows: %v", rows.Load(), n, err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	if _, err := ix.NearestNeighbors(pts[0], 1); !errors.Is(err, ErrClosed) {
		t.Errorf("kNN after Close: %v", err)
	}
	if err := Join(context.Background(), ix, ix, 1, true, QueryConfig{}, func(Result) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Join after Close: %v", err)
	}
	if err := ix.InsertBatch([]ObjectID{n}, []Point{pts[0]}); !errors.Is(err, ErrClosed) {
		t.Errorf("InsertBatch after Close: %v", err)
	}
	if err := ix.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close: %v", err)
	}
	if got := ix.Len(); got != n {
		t.Errorf("Len after Close = %d, want %d", got, n)
	}
	if st := ix.Stats(); st.Points != n || st.SnapshotPins != 0 {
		t.Errorf("Stats after Close: %d points, %d pins", st.Points, st.SnapshotPins)
	}

	mem, err := BuildIndex(pts[:500], IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.NearestNeighbors(pts[0], 1); !errors.Is(err, ErrClosed) {
		t.Errorf("kNN after Close of an in-memory index: %v", err)
	}
}
