package client

import (
	"time"

	"allnn/ann"
	"allnn/internal/nodecache"
	"allnn/internal/storage"
	"allnn/internal/wire"
)

// QueryReport is the server-produced observability record for one
// remote join, requested with JoinOptions.WantReport. It carries the
// same engine/pool/cache/timings breakdown a local ann.QueryConfig
// OnReport callback would receive, plus the service-side costs only
// the server can measure.
type QueryReport struct {
	ann.QueryReport

	// TraceID echoes the request's trace ID (JoinOptions.TraceID).
	TraceID string
	// AdmissionWait is the time the request spent queued for an
	// execution slot before the engine started.
	AdmissionWait time.Duration
	// EngineTime is the server-side wall time of the engine run,
	// excluding flushes of result frames that happened mid-run.
	EngineTime time.Duration
	// FlushTime is the total time the server spent encoding and
	// writing response frames for this request.
	FlushTime time.Duration
	// BytesIn and BytesOut are the request's wire footprint as the
	// server measured it. BytesOut excludes the final StreamEnd frame
	// that carries this report.
	BytesIn  uint64
	BytesOut uint64
}

// reportFromWire unflattens the wire form back into the client report.
// It is the inverse of the server's reqCtx.wireReport.
func reportFromWire(w *wire.Report) *QueryReport {
	r := &QueryReport{
		TraceID:       w.TraceID,
		AdmissionWait: time.Duration(w.AdmissionWaitNs),
		EngineTime:    time.Duration(w.EngineNs),
		FlushTime:     time.Duration(w.FlushNs),
		BytesIn:       w.BytesIn,
		BytesOut:      w.BytesOut,
	}
	r.Engine = ann.Stats{
		DistanceCalcs:   w.EngineDistanceCalcs,
		LPQsCreated:     w.EngineLPQsCreated,
		Enqueued:        w.EngineEnqueued,
		PrunedOnProbe:   w.EnginePrunedOnProbe,
		PrunedByFilter:  w.EnginePrunedByFilter,
		NodesExpandedR:  w.EngineNodesExpandedR,
		NodesExpandedS:  w.EngineNodesExpandedS,
		Results:         w.EngineResults,
		NodeCacheHits:   w.EngineNodeCacheHits,
		NodeCacheMisses: w.EngineNodeCacheMisses,
		PrunedSubtrees:  w.EnginePrunedSubtrees,
		PrunedEntries:   w.EnginePrunedEntries,
	}
	r.Pool = storage.Stats{
		Hits:         w.PoolHits,
		Misses:       w.PoolMisses,
		Reads:        w.PoolReads,
		Writes:       w.PoolWrites,
		Evictions:    w.PoolEvictions,
		Retries:      w.PoolRetries,
		CorruptPages: w.PoolCorruptPages,
	}
	r.Cache = nodecache.Counters{
		Hits:          w.CacheHits,
		Misses:        w.CacheMisses,
		Evictions:     w.CacheEvictions,
		Invalidations: w.CacheInvalidations,
	}
	r.CacheResidency = nodecache.Residency{
		Entries: int(w.CacheEntries),
		Bytes:   w.CacheBytes,
	}
	r.Timings = ann.Timings{
		Wall:     time.Duration(w.WallNs),
		Setup:    time.Duration(w.SetupNs),
		Seed:     time.Duration(w.SeedNs),
		Frontier: time.Duration(w.FrontierNs),
		Traverse: time.Duration(w.TraverseNs),
		Expand:   time.Duration(w.ExpandNs),
		Filter:   time.Duration(w.FilterNs),
		Gather:   time.Duration(w.GatherNs),
	}
	r.Sched = ann.SchedStats{
		Tasks:           w.SchedTasks,
		Steals:          w.SchedSteals,
		Splits:          w.SchedSplits,
		KernelBlocks:    w.SchedKernelBlocks,
		KernelPairs:     w.SchedKernelPairs,
		KernelEarlyOuts: w.SchedKernelEarlyOuts,
	}
	return r
}
