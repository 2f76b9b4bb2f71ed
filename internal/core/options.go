// Package core implements the paper's primary contribution: the MBA
// algorithm (Algorithms 2–4) for All-Nearest-Neighbor and
// All-k-Nearest-Neighbor queries over a pair of spatial indexes, with the
// Local Priority Queue (LPQ) structure and the Three-Stage
// (Expand/Filter/Gather) pruning strategy built on the NXNDIST metric.
// This is the production engine: LPQs stop at the leaves of I_R, where a
// fused leaf join answers all of a leaf's query objects at once, and LPQ
// bounds never loosen. The algorithms as printed live in
// internal/paperref, the reference this engine is tested against.
//
// The engine traverses any pair of indexes implementing index.Tree; run
// over two MBRQTs it is the paper's MBA, over two R*-trees it is RBA.
// All distances are squared internally (comparisons are order-preserving
// and the square roots are paid only when results are emitted).
package core

import (
	"math"

	"allnn/internal/geom"
	"allnn/internal/obs"
)

// Metric selects the pruning upper bound used between an owner MBR M (from
// the query index) and a candidate MBR N (from the target index).
type Metric uint8

const (
	// NXNDist is the paper's MINMAXMINDIST: the distance within which
	// every point of M is guaranteed a nearest neighbor inside N.
	NXNDist Metric = iota
	// MaxMaxDist is the traditional, looser bound used by prior work.
	MaxMaxDist
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case NXNDist:
		return "NXNDIST"
	case MaxMaxDist:
		return "MAXMAXDIST"
	default:
		return "UNKNOWN"
	}
}

// BoundSq evaluates the squared metric between two MBRs.
func (m Metric) BoundSq(owner, candidate geom.Rect) float64 {
	if m == MaxMaxDist {
		return geom.MaxDistSq(owner, candidate)
	}
	return geom.NXNDistSq(owner, candidate)
}

// Options configures an ANN/AkNN execution. The zero value runs ANN (k=1)
// with NXNDIST pruning, serially.
type Options struct {
	// K is the number of neighbors per query object (0 means 1).
	K int
	// Metric is the pruning upper bound (default NXNDist).
	Metric Metric
	// ExcludeSelf skips the result pairing an object with itself (same
	// ObjectID); use it when R and S are the same dataset. Internally the
	// engine searches one extra neighbor so that pruning stays sound.
	ExcludeSelf bool
	// Parallelism is the number of worker goroutines draining independent
	// subtrees of the query index concurrently. 0 and 1 run the serial
	// engine; higher values expand the first level(s) of I_R serially and
	// hand each resulting LPQ subtree to a worker. Workers read I_S
	// through the shared storage.BufferPool, which is safe for concurrent
	// readers.
	Parallelism int
	// OrderedEmit releases parallel results in index traversal order,
	// making parallel output identical to the serial engine's: the worker
	// on the earliest unfinished subtree streams its rows as it joins them,
	// and the others park theirs, up to a bounded window, until the stream
	// reaches them. Without it results are emitted (mutex-serialised) as
	// soon as workers produce them, in scheduling-dependent order. No
	// effect when Parallelism <= 1.
	OrderedEmit bool
	// NodeCacheBytes bounds the decoded-node cache RunContext attaches to each
	// index that supports one (see index.NodeCacher): 0 selects
	// index.DefaultNodeCacheBytes, a positive value is the budget in
	// bytes, and a negative value (NodeCacheDisabled) detaches the cache
	// so every expansion decodes from the buffer pool — the configuration
	// the paper-reproduction experiments use, since cache hits bypass the
	// pool and would distort the reproduced I/O counts. The cache changes
	// only the cost of expansion, never the traversal: probe/expansion
	// counters in Stats are identical with and without it.
	NodeCacheBytes int64
	// Tracer, when non-nil, records the query's lifecycle as spans —
	// setup/seed/traverse, the per-LPQ Expand/Filter/Gather stages,
	// parallel worker and subtree lifetimes, plus buffer-pool reads and
	// node-cache fetches (wired for the duration of the run). Export the
	// trace with Tracer.WriteJSON and open it in Perfetto. Nil (the
	// default) records nothing and costs one nil check per stage.
	Tracer *obs.Tracer
	// Registry, when non-nil, receives engine observations that only
	// exist mid-run (currently the per-subtree drain-time histogram of
	// the parallel executor, "engine.subtree_nanos"). Final counters are
	// published by RunReportContext, not RunContext.
	Registry *obs.Registry
	// Sched, when non-nil, accumulates the execution's scheduling and
	// batch-kernel activity (see SchedStats). Unlike Stats these numbers
	// are not invariant across serial and parallel execution — task and
	// split counts depend on timing — which is why they live outside
	// Stats and its parity guarantees. RunReportContext sets this to collect
	// QueryReport.Sched.
	Sched *SchedStats

	// timings, when non-nil, receives the per-stage wall-time breakdown.
	// Set by RunReportContext; stage clocks cost two time.Now() calls per LPQ
	// when enabled and nothing when nil.
	timings *Timings
}

// NodeCacheDisabled disables the decoded-node cache when assigned to
// Options.NodeCacheBytes.
const NodeCacheDisabled int64 = -1

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 1
	}
	return o
}

// effectiveK is the number of neighbors actually gathered per object.
func (o Options) effectiveK() int {
	k := o.K
	if o.ExcludeSelf {
		k++
	}
	return k
}

// Neighbor is one neighbor in a query result. It is the row type all the
// way out: ann.Neighbor and wire.Neighbor are aliases of it, so a row is
// built once, by the leaf join, in the form every hop and the caller
// read.
type Neighbor struct {
	// ID is the neighbor's position in the target dataset.
	ID uint64
	// Point is the neighbor's coordinates.
	Point []float64
	// Dist is the Euclidean distance from the query point.
	Dist float64
}

// Result lists the neighbors of one query point, ascending by distance
// (ann.Result and wire.Result are aliases of it).
type Result struct {
	// ID is the query point's position in the query dataset.
	ID uint64
	// Point is the query point's coordinates.
	Point []float64
	// Neighbors holds the k nearest target points (fewer if the target
	// dataset is smaller).
	Neighbors []Neighbor
}

// Stats counts the work performed by one execution. The paper's CPU-cost
// differences between metrics and indexes show up directly in
// DistanceCalcs and the enqueue/prune counters.
type Stats struct {
	// DistanceCalcs counts (MIND, MAXD) evaluations between an owner and
	// a candidate entry — the Distances() calls of Algorithm 4.
	DistanceCalcs uint64
	// LPQsCreated counts LPQs created: one per I_R node reached (query
	// objects own none).
	LPQsCreated uint64
	// Enqueued counts entries accepted into some LPQ or, at object level,
	// passing some query object's admission bound.
	Enqueued uint64
	// PrunedOnProbe counts candidates rejected by MIND > bound at probe time.
	PrunedOnProbe uint64
	// PrunedByFilter counts queued entries truncated by the Filter Stage
	// and, at object level, entries pushed off a full accumulator row.
	PrunedByFilter uint64
	// NodesExpandedR / NodesExpandedS count index node expansions.
	NodesExpandedR uint64
	NodesExpandedS uint64
	// Results counts emitted result rows (one per R object).
	Results uint64
	// NodeCacheHits / NodeCacheMisses count decoded-node cache lookups
	// made during this execution (zero when the cache is disabled or the
	// indexes do not support one). A hit serves an Expand without pool
	// I/O or decoding.
	NodeCacheHits   uint64
	NodeCacheMisses uint64
	// PrunedSubtrees / PrunedEntries count queued candidate subtrees
	// (node entries) and candidate objects discarded wholesale by a
	// terminal early-stop — a node-level drain or leaf-join cut that throws
	// away the rest of a MIND-ordered queue at once, as opposed to the
	// per-candidate rejections in PrunedOnProbe/PrunedByFilter.
	PrunedSubtrees uint64
	PrunedEntries  uint64
}

// Add accumulates other into s. The parallel executor gives each worker a
// private Stats and folds them into the caller's at the end, so counter
// totals are identical to a serial run of the same query.
func (s *Stats) Add(other Stats) {
	s.DistanceCalcs += other.DistanceCalcs
	s.LPQsCreated += other.LPQsCreated
	s.Enqueued += other.Enqueued
	s.PrunedOnProbe += other.PrunedOnProbe
	s.PrunedByFilter += other.PrunedByFilter
	s.NodesExpandedR += other.NodesExpandedR
	s.NodesExpandedS += other.NodesExpandedS
	s.Results += other.Results
	s.NodeCacheHits += other.NodeCacheHits
	s.NodeCacheMisses += other.NodeCacheMisses
	s.PrunedSubtrees += other.PrunedSubtrees
	s.PrunedEntries += other.PrunedEntries
}

// SchedStats counts the parallel executor's scheduling decisions and the
// leaf join's batch-kernel throughput. It is diagnostic, not semantic:
// Tasks/Splits vary run to run with goroutine timing, and the kernel
// counters depend on batching boundaries — so none of this belongs in
// Stats, whose serial/parallel parity is tested. A serial run reports
// zero Tasks/Splits and whatever kernel batching the leaf join performed.
type SchedStats struct {
	// Tasks counts subtree tasks drained to completion by workers
	// (frontier subtrees plus split-produced children; splits themselves
	// are counted separately).
	Tasks uint64 `json:"tasks"`
	// Steals is always 0: the workers share one task stack, so there is
	// nothing to steal. The field stays because the "engine.sched_steals"
	// counter and the benchmark's core.sched_steals name it.
	Steals uint64 `json:"steals"`
	// Splits counts oversized subtree tasks re-expanded into child tasks
	// instead of being drained in place.
	Splits uint64 `json:"splits"`
	// KernelBlocks / KernelPairs count batch distance-kernel invocations
	// and the owner x candidate pairs they evaluated.
	KernelBlocks uint64 `json:"kernel_blocks"`
	KernelPairs  uint64 `json:"kernel_pairs"`
}

// Add accumulates other into s (workers keep private SchedStats, merged
// like Stats).
func (s *SchedStats) Add(other SchedStats) {
	s.Tasks += other.Tasks
	s.Steals += other.Steals
	s.Splits += other.Splits
	s.KernelBlocks += other.KernelBlocks
	s.KernelPairs += other.KernelPairs
}

// AddTo accumulates the scheduling counters into a metrics registry
// under the "engine" family (see DESIGN.md §10).
func (s SchedStats) AddTo(r *obs.Registry) {
	r.Counter("engine.sched_tasks").Add(s.Tasks)
	r.Counter("engine.sched_steals").Add(s.Steals)
	r.Counter("engine.sched_splits").Add(s.Splits)
	r.Counter("engine.kernel_blocks").Add(s.KernelBlocks)
	r.Counter("engine.kernel_pairs").Add(s.KernelPairs)
}

// AddTo accumulates the execution's counters into a metrics registry
// under the "engine" family. The metric names are the stable external
// form of Stats (see DESIGN.md §10).
func (s Stats) AddTo(r *obs.Registry) {
	r.Counter("engine.distance_calcs").Add(s.DistanceCalcs)
	r.Counter("engine.lpqs_created").Add(s.LPQsCreated)
	r.Counter("engine.enqueued").Add(s.Enqueued)
	r.Counter("engine.pruned_on_probe").Add(s.PrunedOnProbe)
	r.Counter("engine.pruned_by_filter").Add(s.PrunedByFilter)
	r.Counter("engine.nodes_expanded_r").Add(s.NodesExpandedR)
	r.Counter("engine.nodes_expanded_s").Add(s.NodesExpandedS)
	r.Counter("engine.results").Add(s.Results)
	r.Counter("engine.node_cache_hits").Add(s.NodeCacheHits)
	r.Counter("engine.node_cache_misses").Add(s.NodeCacheMisses)
	r.Counter("engine.prune_subtrees").Add(s.PrunedSubtrees)
	r.Counter("engine.prune_entries").Add(s.PrunedEntries)
}

var infinity = math.Inf(1)
