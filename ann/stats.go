package ann

import (
	"allnn/internal/storage"
)

// IndexStats is a point-in-time snapshot of one index's shape and
// storage activity — the per-index record behind the server's catalog
// stats operation. Pool counters are cumulative since the index was
// built or opened; cache counters cover the attached decoded-node cache
// (zero when none is attached yet).
type IndexStats struct {
	Points int       `json:"points"`
	Dim    int       `json:"dim"`
	Kind   IndexKind `json:"kind"`

	PoolHits         uint64 `json:"pool_hits"`
	PoolMisses       uint64 `json:"pool_misses"`
	PoolReads        uint64 `json:"pool_reads"`
	PoolWrites       uint64 `json:"pool_writes"`
	PoolEvictions    uint64 `json:"pool_evictions"`
	PoolRetries      uint64 `json:"pool_retries"`
	PoolCorruptPages uint64 `json:"pool_corrupt_pages"`
	PinnedFrames     int    `json:"pinned_frames"`

	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheEvictions     uint64 `json:"cache_evictions"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       int    `json:"cache_entries"`
	CacheBytes         int64  `json:"cache_bytes"`

	// Write-ahead-log counters, all zero for an in-memory index (which
	// has no log). SnapshotPins is the number of snapshot references
	// currently held by in-flight queries.
	WALRecords     uint64 `json:"wal_records"`
	WALFsyncs      uint64 `json:"wal_fsyncs"`
	WALCheckpoints uint64 `json:"wal_checkpoints"`
	WALReplayed    uint64 `json:"wal_replayed"`
	WALReplayNs    int64  `json:"wal_replay_ns"`
	SnapshotPins   int64  `json:"snapshot_pins"`
}

// Stats snapshots the index. Safe to call concurrently with queries.
func (ix *Index) Stats() IndexStats {
	ps := ix.pool.Stats()
	st := IndexStats{
		Points: ix.Len(),
		Dim:    ix.Dim(),
		Kind:   ix.kind,

		PoolHits:         ps.Hits,
		PoolMisses:       ps.Misses,
		PoolReads:        ps.Reads,
		PoolWrites:       ps.Writes,
		PoolEvictions:    ps.Evictions,
		PoolRetries:      ps.Retries,
		PoolCorruptPages: ps.CorruptPages,
		PinnedFrames:     ix.pool.PinnedFrames(),
	}
	if ix.wal != nil {
		ws := ix.wal.Stats()
		st.WALRecords = ws.Records
		st.WALFsyncs = ws.Fsyncs
		st.WALCheckpoints = ws.Checkpoints
		st.WALReplayed = ws.Replayed
		st.WALReplayNs = ws.ReplayNs
	}
	st.SnapshotPins = ix.totalPins()
	if c := ix.tree.NodeCacheRef(); c != nil {
		ct := c.Counters()
		st.CacheHits = ct.Hits
		st.CacheMisses = ct.Misses
		st.CacheEvictions = ct.Evictions
		st.CacheInvalidations = ct.Invalidations
		r := c.Residency()
		st.CacheEntries = r.Entries
		st.CacheBytes = r.Bytes
	}
	return st
}

// RegisterWALMetrics exposes the live index's write-path gauges and
// counters in m. Every index has the page-lifecycle gauges
// storage.free_pages (reusable), storage.drained_pages (dead, awaiting a
// checkpoint's fence), storage.deferred_refs (unlinked node refs a
// snapshot may still read, or not yet drained) and storage.young_pages
// (live pages claimed since the last checkpoint, free at once when they
// die); a file-backed one adds its log's wal.records, wal.fsyncs,
// wal.checkpoints, wal.replayed_records, wal.replay_ns and
// wal.snapshot_pins.
func (ix *Index) RegisterWALMetrics(m *MetricsRegistry) {
	r := m.registry()
	r.GaugeFunc("storage.free_pages", func() int64 { free, _, _, _ := ix.tree.PageGauges(); return free })
	r.GaugeFunc("storage.drained_pages", func() int64 { _, drained, _, _ := ix.tree.PageGauges(); return drained })
	r.GaugeFunc("storage.deferred_refs", func() int64 { _, _, deferred, _ := ix.tree.PageGauges(); return deferred })
	r.GaugeFunc("storage.young_pages", func() int64 { _, _, _, young := ix.tree.PageGauges(); return young })
	if ix.wal != nil {
		ix.wal.Register(r, "wal")
	}
}

// RequireNoPinnedFrames forwards to storage.RequireNoPinnedFrames for
// the index's buffer pool: it fails the test when any frame is still
// pinned after the exercised paths, the leak assertion concurrency and
// chaos tests end with.
func (ix *Index) RequireNoPinnedFrames(t storage.TB) {
	storage.RequireNoPinnedFrames(t, ix.pool)
}
