package ann

// IndexStats is a point-in-time snapshot of one index's shape and
// storage activity — the per-index record behind the server's catalog
// stats operation. Pool counters are cumulative since the index was
// built or opened; cache counters cover the attached decoded-node cache
// (zero when none is attached yet).
type IndexStats struct {
	Points int `json:"points"`
	Dim    int `json:"dim"`

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
	pool := ix.tree.Pool()
	ps := pool.Stats()
	st := IndexStats{
		Points: ix.Len(),
		Dim:    ix.Dim(),

		PoolHits:         ps.Hits,
		PoolMisses:       ps.Misses,
		PoolReads:        ps.Reads,
		PoolWrites:       ps.Writes,
		PoolEvictions:    ps.Evictions,
		PoolRetries:      ps.Retries,
		PoolCorruptPages: ps.CorruptPages,
		PinnedFrames:     pool.PinnedFrames(),
	}
	if ix.wal != nil {
		ws := ix.wal.Stats()
		st.WALRecords = ws.Records
		st.WALFsyncs = ws.Fsyncs
		st.WALCheckpoints = ws.Checkpoints
		st.WALReplayed = ws.Replayed
		st.WALReplayNs = ws.ReplayNs
	}
	st.SnapshotPins = ix.tree.Pins()
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
