package core

import (
	"context"
	"time"

	"allnn/internal/index"
	"allnn/internal/nodecache"
	"allnn/internal/obs"
	"allnn/internal/storage"
)

// Timings is the wall-time breakdown of one execution. Wall covers the
// whole query; Setup, Seed, Frontier and Traverse partition the main
// goroutine's time; Expand, Filter and Gather split the traversal into
// the paper's three stages and are disjoint: Filter is the candidate
// drains (into child LPQs, or into a leaf's accumulators), Gather the
// per-leaf emit loops, Expand the rest of each expansion (both are
// subtracted from their enclosing Expand). Under parallel execution the
// stage clocks sum every worker's time, so Expand+Filter+Gather is CPU
// time and may exceed Wall — that excess is exactly the parallel
// speed-up.
//
// Timings lives outside Stats on purpose: Stats counters are invariant
// across serial and parallel execution of the same query (and tested to
// be), while timings never are.
type Timings struct {
	Wall     time.Duration `json:"wall_ns"`
	Setup    time.Duration `json:"setup_ns"`
	Seed     time.Duration `json:"seed_ns"`
	Frontier time.Duration `json:"frontier_ns"`
	Traverse time.Duration `json:"traverse_ns"`
	Expand   time.Duration `json:"expand_ns"`
	Filter   time.Duration `json:"filter_ns"`
	Gather   time.Duration `json:"gather_ns"`
}

// addStages folds a parallel worker's stage clocks into t. Only the
// per-stage clocks travel: Wall, Setup, Seed, Frontier and Traverse
// belong to the main goroutine.
func (t *Timings) addStages(o Timings) {
	t.Expand += o.Expand
	t.Filter += o.Filter
	t.Gather += o.Gather
}

// QueryReport is the unified per-query observability record: the
// engine's work counters, the buffer-pool and decoded-node-cache
// activity attributable to this run (deltas between snapshots taken
// around it), the cache residency after the run, and the stage timing
// breakdown. It marshals to the JSON consumed by EXPERIMENTS.md's
// counter-reproduction workflow; the nested structs' Go field names are
// the stable wire format.
type QueryReport struct {
	Engine Stats `json:"engine"`
	// Pool is the buffer-pool activity during the run, summed over the
	// distinct pools behind the two indexes (one for a self-join). Misses
	// is the paper's I/O cost.
	Pool storage.Stats `json:"pool"`
	// Cache is the decoded-node cache activity during the run;
	// CacheResidency is the occupancy gauge sampled after it.
	Cache          nodecache.Counters  `json:"cache"`
	CacheResidency nodecache.Residency `json:"cache_residency"`
	Timings        Timings             `json:"timings"`
	// Sched is the scheduling/leaf-join activity of the run. Like
	// Timings (and unlike Engine) it is timing-dependent and carries no
	// serial/parallel parity guarantee.
	Sched SchedStats `json:"sched"`
}

// pooled is implemented by indexes whose pages live in a buffer pool
// (mbrqt.Tree, rstar.Tree and mbrqt.Snapshot). Structural, so core
// needs no dependency on the index implementations.
type pooled interface {
	Pool() *storage.BufferPool
}

// distinctPools returns the distinct buffer pools behind the given trees
// (a self-join passes the same tree twice and yields one pool).
func distinctPools(trees ...index.Tree) []*storage.BufferPool {
	var pools []*storage.BufferPool
	for _, t := range trees {
		pt, ok := t.(pooled)
		if !ok {
			continue
		}
		p := pt.Pool()
		if p == nil {
			continue
		}
		dup := false
		for _, q := range pools {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			pools = append(pools, p)
		}
	}
	return pools
}

// RunReportContext executes the query like RunContext and returns the
// unified QueryReport alongside the error. Pool and cache activity is
// attributed to the run by snapshotting their cumulative counters
// before and after, so long-lived pools need no reset.
//
// When opts.Registry is set, the report is also published there: the
// engine counters accumulate under the "engine" family, the live pools
// and caches are wired under "pool" and "cache" (callback-backed and
// idempotent, summing when an R-vs-S join has two), and the query wall
// time is observed into the "engine.query_nanos" histogram.
//
// On early cancellation (see RunContext) the report covers the work done
// up to the abort.
func RunReportContext(ctx context.Context, ir, is index.Tree, opts Options, emit func(Result) error) (QueryReport, error) {
	var rep QueryReport
	pools := distinctPools(ir, is)
	poolsBefore := make([]storage.Stats, len(pools))
	for i, p := range pools {
		poolsBefore[i] = p.Stats()
	}
	// Attach the caches up-front so their counters can be snapshotted;
	// RunContext's own setupNodeCaches call is idempotent and reuses them.
	caches := setupNodeCaches(ir, is, opts.NodeCacheBytes, opts.Parallelism)
	cachesBefore := cacheSnapshot(caches)

	opts.timings = &rep.Timings
	opts.Sched = &rep.Sched
	stats, err := RunContext(ctx, ir, is, opts, emit)
	rep.Engine = stats
	for i, p := range pools {
		rep.Pool.Add(p.Stats().Delta(poolsBefore[i]))
	}
	rep.Cache = cacheSnapshot(caches).Delta(cachesBefore)
	for _, c := range caches {
		r := c.Residency()
		rep.CacheResidency.Entries += r.Entries
		rep.CacheResidency.Bytes += r.Bytes
	}

	if r := opts.Registry; r != nil {
		rep.Engine.AddTo(r)
		rep.Sched.AddTo(r)
		registerPools(r, pools)
		registerCaches(r, caches)
		r.Histogram("engine.query_nanos", obs.LatencyBuckets()).
			Observe(float64(rep.Timings.Wall.Nanoseconds()))
	}
	return rep, err
}

// registerPools wires the live pools under the "pool" family. The
// callbacks sum over the distinct pools, so an R-vs-S join over two
// stores reports combined activity (re-registration replaces the
// previous callbacks — idempotent for repeated runs over the same
// trees).
func registerPools(r *obs.Registry, pools []*storage.BufferPool) {
	if len(pools) == 0 {
		return
	}
	sum := func() storage.Stats {
		var s storage.Stats
		for _, p := range pools {
			s.Add(p.Stats())
		}
		return s
	}
	r.CounterFunc("pool.hits", func() uint64 { return sum().Hits })
	r.CounterFunc("pool.misses", func() uint64 { return sum().Misses })
	r.CounterFunc("pool.reads", func() uint64 { return sum().Reads })
	r.CounterFunc("pool.writes", func() uint64 { return sum().Writes })
	r.CounterFunc("pool.evictions", func() uint64 { return sum().Evictions })
	r.CounterFunc("pool.retries", func() uint64 { return sum().Retries })
	r.CounterFunc("pool.corrupt_pages", func() uint64 { return sum().CorruptPages })
	r.GaugeFunc("pool.pinned_frames", func() int64 {
		n := 0
		for _, p := range pools {
			n += p.PinnedFrames()
		}
		return int64(n)
	})
}

// registerCaches wires the live decoded-node caches under the "cache"
// family, summing like registerPools.
func registerCaches(r *obs.Registry, caches []*index.NodeCache) {
	if len(caches) == 0 {
		return
	}
	sum := func() nodecache.Counters {
		var ct nodecache.Counters
		for _, c := range caches {
			ct.Add(c.Counters())
		}
		return ct
	}
	res := func() nodecache.Residency {
		var rs nodecache.Residency
		for _, c := range caches {
			cr := c.Residency()
			rs.Entries += cr.Entries
			rs.Bytes += cr.Bytes
		}
		return rs
	}
	r.CounterFunc("cache.hits", func() uint64 { return sum().Hits })
	r.CounterFunc("cache.misses", func() uint64 { return sum().Misses })
	r.CounterFunc("cache.evictions", func() uint64 { return sum().Evictions })
	r.CounterFunc("cache.invalidations", func() uint64 { return sum().Invalidations })
	r.GaugeFunc("cache.entries", func() int64 { return int64(res().Entries) })
	r.GaugeFunc("cache.bytes", func() int64 { return res().Bytes })
}
