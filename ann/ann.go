// Package ann is the public API of the library: efficient
// All-Nearest-Neighbor (ANN) and All-k-Nearest-Neighbor (AkNN) queries
// over multi-dimensional point datasets, implementing Chen & Patel,
// "Efficient Evaluation of All-Nearest-Neighbor Queries" (ICDE 2007).
//
// The typical flow is: build an Index over each dataset, then Join the
// two indexes — k = 1 is ANN, a larger k AkNN. For a self-join ("for
// every point, its nearest other point"), build one index, pass it as
// both sides and set excludeSelf. Join streams its rows to a callback;
// JoinAll collects them. Every join takes a context first;
// context.Background() runs it to completion.
//
//	r, _ := ann.BuildIndex(queryPoints, ann.IndexConfig{})
//	s, _ := ann.BuildIndex(targetPoints, ann.IndexConfig{})
//	results, _ := ann.JoinAll(ctx, r, s, 1, false, ann.QueryConfig{})
//
// Every index is the paper's MBRQT (an MBR-enhanced bucket PR
// quadtree), and queries prune with the paper's NXNDIST metric.
//
// Queries run in parallel by default: independent subtrees of the query
// index are drained by a pool of worker goroutines (one per CPU unless
// QueryConfig.Parallelism says otherwise) over the shared, concurrency-
// safe buffer pool, and results are released in index traversal order so
// output is identical to a serial run. Set QueryConfig.Parallelism to 1
// for the paper's single-threaded engine.
package ann

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"

	"allnn/internal/core"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/obs"
	"allnn/internal/storage"
)

// Point is a point in D-dimensional space. All points of a dataset must
// share the same length.
type Point = []float64

// ObjectID identifies a point within its dataset; BuildIndex assigns
// sequential ids (the position in the input slice).
type ObjectID = uint64

// IndexConfig configures BuildIndex. The zero value is ready to use.
type IndexConfig struct {
	// BufferPoolBytes bounds the buffer pool caching the index pages
	// (default 64 MB; the disk-resident pages live in memory unless
	// PageFile is set).
	BufferPoolBytes int
	// PageFile, when non-empty, stores the index pages in a file at this
	// path instead of in memory.
	PageFile string
	// CheckpointEveryBytes, when positive, auto-checkpoints a file-backed
	// live index once the write-ahead log exceeds this many bytes: the
	// mutation batch that pushes the log past the budget triggers the
	// same checkpoint Flush runs (pages synced, log truncated) before
	// returning. This bounds the log's disk footprint, the replay work a
	// crash incurs and the page file's growth under churn (a superseded
	// page the last checkpoint references is reused only after the next
	// one; a younger page as soon as no query reads it). 0 (the default) keeps
	// checkpoint cadence manual — Flush, Close, and recovery still
	// checkpoint as before.
	CheckpointEveryBytes int64
}

// Error classification re-exported from the storage layer, so callers
// can tell permanently damaged data from transient device trouble with
// errors.Is on any error a query or index build surfaces:
//
//   - ErrCorruptPage: a page failed its checksum, header or structural
//     verification. Retrying cannot help; the index needs a rebuild.
//   - ErrTransientIO: an I/O operation failed in a retryable way and the
//     buffer pool's retries (three, with jittered exponential backoff
//     from 200µs, capped at 5ms) were exhausted.
var (
	ErrCorruptPage = storage.ErrCorruptPage
	ErrTransientIO = storage.ErrTransientIO
)

// ErrInvalidConfig is wrapped by every request rejected for its
// arguments, so callers — and the serving layer, which answers
// BAD_REQUEST — can classify bad requests with errors.Is: a query with k
// below 1, a NaN or negative join distance, two indexes or a probe or box
// of different dimensionality, an inverted box, and a rejected mutation
// batch (ids and points of unequal count, an empty batch, a point of the
// wrong dimensionality or outside the index space).
var ErrInvalidConfig = errors.New("invalid options")

// ErrClosed is returned by every query, write, Flush and Close that
// reaches an index once its Close has begun.
var ErrClosed = mbrqt.ErrClosed

// refusal is an ErrInvalidConfig whose text is its message alone, so a
// served refusal reads as the router's, which makes the same check.
type refusal string

func (e refusal) Error() string { return string(e) }
func (refusal) Unwrap() error   { return ErrInvalidConfig }

// QueryConfig configures a Join.
type QueryConfig struct {
	// Parallelism is the number of worker goroutines draining independent
	// subtrees of the query index concurrently: 0 (the default) uses
	// runtime.GOMAXPROCS(0), 1 forces the single-threaded engine, and any
	// higher value runs that many workers. Workers share the index buffer
	// pool, which is safe for concurrent readers. Results are released in
	// index traversal order, byte-identical at every setting.
	Parallelism int
	// NodeCacheBytes bounds the decoded-node cache a join keeps above each
	// index's buffer pool: decoded node entry slices are shared across the
	// repeated expansions of ANN traversal instead of being re-parsed
	// from page bytes. 0 (the default) uses a 32 MiB budget per index; a
	// positive value sets the budget in bytes; a negative value detaches
	// the cache so every expansion decodes from the pool. The cache only
	// changes speed, never results. It governs joins only: the point
	// queries (Index.NearestNeighbors, Index.RangeSearchWithPoints) read
	// each node once, in its pinned page, and neither use nor fill it.
	NodeCacheBytes int64
	// TraceOut, when non-nil, receives the query's execution trace as
	// Chrome trace-event JSON when the query completes — open it at
	// https://ui.perfetto.dev. Spans cover the setup/seed/traversal
	// phases, every Expand/Filter/Gather stage, parallel worker and
	// subtree lifetimes, buffer-pool reads and node-cache fetches.
	// Tracing costs a few timestamps per index node; nil (the default)
	// costs nothing.
	TraceOut io.Writer
	// OnReport, when non-nil, is called once after the query with the
	// unified QueryReport (counters + timings) for this run.
	OnReport func(QueryReport)
}

// observed reports whether any observability output is requested.
func (cfg QueryConfig) observed() bool {
	return cfg.TraceOut != nil || cfg.OnReport != nil
}

// Neighbor is one neighbor in a query result: ID is the neighbor's
// position in the target dataset, Point its coordinates and Dist the
// Euclidean distance from the query point. It is the engine's own row
// type, so a streamed join hands the caller the rows the leaf join built.
type Neighbor = core.Neighbor

// Result lists the neighbors of one query point, ascending by distance:
// ID is the query point's position in the query dataset, Point its
// coordinates, and Neighbors holds the k nearest target points (fewer if
// the target dataset is smaller).
type Result = core.Result

// QueryReport is the unified per-query observability record produced via
// QueryConfig.OnReport: the engine's work counters, the buffer-pool and
// decoded-node-cache activity attributable to the run, and the
// wall-time breakdown across the paper's Expand/Filter/Gather stages.
// It marshals to stable JSON (see EXPERIMENTS.md for reproducing the
// paper's counter tables from it).
type QueryReport = core.QueryReport

// Index is a dataset indexed for ANN processing. The query methods and
// the package-level query functions are safe for concurrent use on a
// shared Index (the serving layer multiplexes many clients over one),
// including concurrently with Insert/Delete batches: every query runs
// against the snapshot published by the last completed batch. Close
// may run beside them too: it waits for the running queries (see Close).
type Index struct {
	tree  *mbrqt.Tree
	store storage.Store

	// Live-update state (write.go), armed by enableLiveUpdates; wal is
	// set for file-backed indexes only. writeMu serialises the
	// single-writer mutation path and guards writeErr, the error every
	// later write gets: a failed batch's, or ErrClosed. The readers'
	// snapshots and pins are the tree's (mbrqt.Tree.Acquire).
	wal      *storage.WAL
	writeMu  sync.Mutex
	writeErr error

	// ckptEveryBytes is IndexConfig.CheckpointEveryBytes (0 = manual).
	ckptEveryBytes int64
}

// BuildIndex bulk-loads an index over points. Object ids are the
// positions in the slice.
func BuildIndex(points []Point, cfg IndexConfig) (*Index, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("ann: cannot index an empty dataset")
	}
	dim := len(points[0])
	gp := make([]geom.Point, len(points))
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("ann: point %d has dimensionality %d, expected %d", i, len(p), dim)
		}
		if d := nanDim(p); d >= 0 {
			return nil, fmt.Errorf("ann: point %d is NaN in dimension %d: %w", i, d, ErrInvalidConfig)
		}
		gp[i] = geom.Point(p)
	}
	poolBytes := cfg.BufferPoolBytes
	if poolBytes <= 0 {
		poolBytes = 64 << 20
	}
	var store storage.Store
	if cfg.PageFile != "" {
		fs, err := storage.NewFileStore(cfg.PageFile)
		if err != nil {
			return nil, err
		}
		store = wrapStore(fs)
	} else {
		store = wrapStore(storage.NewMemStore())
	}
	pool := storage.NewBufferPool(store, storage.FramesForBytes(poolBytes))

	tree, err := mbrqt.BulkLoad(pool, gp, nil, mbrqt.Config{})
	if err != nil {
		store.Close()
		return nil, err
	}
	ix := &Index{tree: tree, store: store, ckptEveryBytes: cfg.CheckpointEveryBytes}
	var wal *storage.WAL
	if cfg.PageFile != "" {
		wal, err = createWALAt(cfg.PageFile + ".wal")
		if err != nil {
			store.Close()
			return nil, err
		}
	}
	ix.enableLiveUpdates(wal)
	if wal != nil {
		// Checkpoint the bulk-loaded base state right away, so a crash at
		// any later instant recovers at least the full build.
		if err := ix.checkpointLocked(); err != nil {
			wal.Close()
			store.Close()
			return nil, err
		}
	}
	return ix, nil
}

// Close releases the index's storage (removing nothing unless the page
// file was temporary). It waits for a running write batch, refuses every
// later query and write with ErrClosed, and waits for the queries
// already running — a join to its last row — before it checkpoints and
// closes: a file-backed index with updates not yet covered by a
// checkpoint is checkpointed first, so a clean shutdown leaves an empty
// log and the next OpenIndex has nothing to replay. Close from inside
// one of the index's own emit callbacks therefore deadlocks. A second
// Close returns ErrClosed; Len, Dim and Stats still answer after Close.
func (ix *Index) Close() error {
	ix.writeMu.Lock()
	failed := ix.writeErr
	if failed != ErrClosed {
		ix.writeErr = ErrClosed
	}
	ix.writeMu.Unlock()
	if failed == ErrClosed {
		return ErrClosed
	}
	// writeErr keeps every writer out from here on, so a reader that
	// writes is refused rather than waited for.
	ix.tree.CloseReaders()
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	var firstErr error
	if ix.wal != nil && failed == nil && !ix.wal.Empty() {
		if err := ix.checkpointLocked(); err != nil {
			firstErr = err
		}
	}
	if ix.wal != nil {
		if err := ix.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := ix.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Len returns the number of indexed points, as of the last published
// update batch.
func (ix *Index) Len() int { return ix.tree.PublishedLen() }

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.tree.Dim() }

// NearestNeighbors returns the k nearest indexed points to q, ascending
// by distance.
func (ix *Index) NearestNeighbors(q Point, k int) ([]Neighbor, error) {
	if err := ix.checkQuery(k, q); err != nil {
		return nil, err
	}
	snap, err := ix.tree.Acquire()
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	res, err := index.NearestNeighbors(snap, geom.Point(q), k)
	if err != nil {
		return nil, err
	}
	return appendNeighbors(make([]Neighbor, 0, len(res)), res), nil
}

// checkQuery rejects what the engine cannot answer, as the served paths
// do: k below 1, and a probe whose dimensionality is not the index's.
func (ix *Index) checkQuery(k int, probes ...Point) error {
	if k < 1 {
		return fmt.Errorf("ann: k must be at least 1, got %d: %w", k, ErrInvalidConfig)
	}
	dim := ix.Dim()
	for i, q := range probes {
		if len(q) != dim {
			return fmt.Errorf("ann: query point %d has %d dims, the index %d: %w", i, len(q), dim, ErrInvalidConfig)
		}
		if d := nanDim(q); d >= 0 {
			return fmt.Errorf("ann: query point %d is NaN in dimension %d: %w", i, d, ErrInvalidConfig)
		}
	}
	return nil
}

// nanDim returns the first dimension in which p is NaN, or -1. NaN fails
// every comparison, so it would slip past the space and box checks and
// then break the engine's distance order; every entry point refuses it.
func nanDim(p Point) int {
	return slices.IndexFunc(p, math.IsNaN)
}

// appendNeighbors appends the index layer's results to dst in this
// package's form.
func appendNeighbors(dst []Neighbor, res []index.QueryResult) []Neighbor {
	for _, r := range res {
		dst = append(dst, Neighbor{ID: uint64(r.Object), Point: Point(r.Point), Dist: math.Sqrt(r.DistSq)})
	}
	return dst
}

// BatchNearestNeighbors answers NearestNeighbors(q, k) for every q of qs,
// in order, as one query: the whole batch reads one snapshot (so its
// answers are mutually consistent beside a writer) and shares one search
// state and one result array. ctx is checked between probes; once it is
// done the batch ends with ctx's error and no partial result.
func (ix *Index) BatchNearestNeighbors(ctx context.Context, qs []Point, k int) ([][]Neighbor, error) {
	if err := ix.checkQuery(k, qs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap, err := ix.tree.Acquire()
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	res, err := index.BatchNearestNeighbors(snap, qs, k, ctx.Err)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, r := range res {
		total += len(r)
	}
	flat := make([]Neighbor, 0, total)
	out := make([][]Neighbor, len(res))
	for i, rs := range res {
		base := len(flat)
		flat = appendNeighbors(flat, rs)
		out[i] = flat[base:len(flat):len(flat)]
	}
	return out, nil
}

// RangeSearchWithPoints returns the ids and coordinates of all indexed
// points inside the box [lo, hi] (boundaries inclusive), as parallel
// slices, in the index's traversal order. It is the one box query: the
// wire protocol's OpRange streams its rows, and a router's distributed
// within-distance join fetches its boundary strips with it.
func (ix *Index) RangeSearchWithPoints(lo, hi Point) ([]ObjectID, []Point, error) {
	box, err := ix.box(lo, hi)
	if err != nil {
		return nil, nil, err
	}
	snap, err := ix.tree.Acquire()
	if err != nil {
		return nil, nil, err
	}
	defer snap.Release()
	res, err := index.RangeSearch(snap, box)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]ObjectID, len(res))
	pts := make([]Point, len(res))
	for i, r := range res {
		ids[i] = uint64(r.Object)
		pts[i] = Point(r.Point)
	}
	return ids, pts, nil
}

// box validates the corners of a range query: a box of the wrong
// dimensionality or with a lower bound above its upper bound is an
// invalid request, not a panic in geom.
func (ix *Index) box(lo, hi Point) (geom.Rect, error) {
	if len(lo) != ix.Dim() || len(hi) != ix.Dim() {
		return geom.Rect{}, fmt.Errorf("ann: box corners of %d and %d dims for an index of %d: %w", len(lo), len(hi), ix.Dim(), ErrInvalidConfig)
	}
	for d := range lo {
		if math.IsNaN(lo[d]) || math.IsNaN(hi[d]) {
			return geom.Rect{}, fmt.Errorf("ann: NaN box bound in dimension %d: %w", d, ErrInvalidConfig)
		}
		if lo[d] > hi[d] {
			return geom.Rect{}, fmt.Errorf("ann: inverted box bounds in dimension %d: [%g, %g]: %w", d, lo[d], hi[d], ErrInvalidConfig)
		}
	}
	return geom.Rect{Lo: lo, Hi: hi}, nil
}

// Join computes, for every point of r, its k nearest neighbors in s —
// ANN at k = 1, AkNN above — and calls emit once per point of r, in index
// traversal order. With excludeSelf each point's pairing with the s point
// of its own id is skipped: pass one index twice for a self-join ("for
// every point, its nearest other points"). When ctx is cancelled or its
// deadline passes the query — serial or parallel — stops promptly,
// releases its storage resources and returns ctx.Err(); emit is not
// called again after the cancellation is observed. An emit error ends
// the query the same way.
func Join(ctx context.Context, r, s *Index, k int, excludeSelf bool, cfg QueryConfig, emit func(Result) error) error {
	if err := r.checkQuery(k); err != nil {
		return err
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	opts := core.Options{
		K:              k,
		ExcludeSelf:    excludeSelf,
		Parallelism:    par,
		OrderedEmit:    true,
		NodeCacheBytes: cfg.NodeCacheBytes,
	}
	return pinned(r, s, func(rTree, sTree index.Tree) error {
		if !cfg.observed() {
			_, err := core.RunContext(ctx, rTree, sTree, opts, emit)
			return err
		}
		var tracer *obs.Tracer
		if cfg.TraceOut != nil {
			tracer = obs.NewTracer()
		}
		opts.Tracer = tracer
		rep, err := core.RunReportContext(ctx, rTree, sTree, opts, emit)
		if cfg.TraceOut != nil {
			if werr := tracer.WriteJSON(cfg.TraceOut); werr != nil && err == nil {
				err = werr
			}
		}
		if cfg.OnReport != nil {
			cfg.OnReport(rep)
		}
		return err
	})
}

// JoinAll is Join collecting the rows into a slice; on an error it
// returns the rows produced so far beside it.
func JoinAll(ctx context.Context, r, s *Index, k int, excludeSelf bool, cfg QueryConfig) ([]Result, error) {
	var out []Result
	err := Join(ctx, r, s, k, excludeSelf, cfg, func(res Result) error {
		out = append(out, res)
		return nil
	})
	return out, err
}

// StreamSelfAllKNearestNeighborsContext is Join(ctx, ix, ix, k, true,
// cfg, emit). It stays only because the benchmark spine names it, and
// goes with ROADMAP item 4.
func StreamSelfAllKNearestNeighborsContext(ctx context.Context, ix *Index, k int, cfg QueryConfig, emit func(Result) error) error {
	return Join(ctx, ix, ix, k, true, cfg, emit)
}

// pinned runs fn over the snapshots a two-index query reads, one per
// index for the whole query, after refusing a pair whose dimensions
// differ. A self-join pins one snapshot for both sides: a write
// committing between two acquires would otherwise join across versions.
func pinned(r, s *Index, fn func(rTree, sTree index.Tree) error) error {
	if r.Dim() != s.Dim() {
		return fmt.Errorf("ann: indexes of %d and %d dims do not join: %w", r.Dim(), s.Dim(), ErrInvalidConfig)
	}
	rSnap, err := r.tree.Acquire()
	if err != nil {
		return err
	}
	defer rSnap.Release()
	sSnap := rSnap
	if s != r {
		if sSnap, err = s.tree.Acquire(); err != nil {
			return err
		}
		defer sSnap.Release()
	}
	return fn(rSnap, sSnap)
}

// WithinDistanceContext reports every pair of points (one from r, one
// from s) whose Euclidean distance is at most d — the distance join
// operation. For self-joins pass the same index twice and set
// excludeSelf. When ctx is cancelled or its deadline passes the join
// stops promptly and returns ctx.Err(); emit is not called again after
// the cancellation is observed.
func WithinDistanceContext(ctx context.Context, r, s *Index, d float64, excludeSelf bool, emit func(rID, sID ObjectID, dist float64) error) error {
	if !(d >= 0) {
		return refusal(fmt.Sprintf("distance must be non-negative, got %v", d))
	}
	return pinned(r, s, func(rTree, sTree index.Tree) error {
		_, err := core.DistanceJoinContext(ctx, rTree, sTree, d, excludeSelf, func(p Pair) error {
			return emit(p.R, p.S, p.Dist)
		})
		return err
	})
}

// Pair is one result of ClosestPairsContext: the ids of an r point and
// an s point, and their distance. Like Neighbor it is the engine's own
// row type.
type Pair = core.Pair

// ClosestPairsContext returns the k closest (r, s) pairs across the two
// indexes, ascending by distance. For self-joins pass the same index
// twice and set excludeSelf (each unordered pair then appears in both
// directions). When ctx is cancelled or its deadline passes the
// traversal stops promptly and returns ctx.Err() with no pairs (a
// partial top-k would be misleading).
func ClosestPairsContext(ctx context.Context, r, s *Index, k int, excludeSelf bool) ([]Pair, error) {
	if err := r.checkQuery(k); err != nil {
		return nil, err
	}
	var pairs []Pair
	err := pinned(r, s, func(rTree, sTree index.Tree) (err error) {
		pairs, _, err = core.KClosestPairsContext(ctx, rTree, sTree, k, excludeSelf)
		return err
	})
	return pairs, err
}
