package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/obs"
	"allnn/internal/pq"
)

// armCancel wires a context to the polling-based cancellation machinery
// shared by every traversal: a watcher goroutine flips the returned
// atomic flag when ctx is cancelled, and the engine's loops poll it. The
// flag is nil when ctx can never be cancelled (context.Background()), so
// the paper-configuration hot path pays only a nil check. The returned
// disarm function stops the watcher; call it (usually via defer) when
// the traversal ends. A context that is already cancelled surfaces as an
// immediate error with a nil disarm-safe pair.
func armCancel(ctx context.Context) (cancelled *atomic.Bool, disarm func(), err error) {
	disarm = func() {}
	done := ctx.Done()
	if done == nil {
		return nil, disarm, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, disarm, err
	}
	cancelled = new(atomic.Bool)
	stopWatch := make(chan struct{})
	disarm = func() { close(stopWatch) }
	go func() {
		select {
		case <-done:
			cancelled.Store(true)
		case <-stopWatch:
		}
	}()
	return cancelled, disarm, nil
}

// RunContext executes an ANN/AkNN query: for every point in the query
// index ir, it finds the Options.K nearest points in the target index is,
// calling emit once per query object. Results stream in index traversal
// order.
//
// It is the paper's Algorithm 2 (MBA): it seeds the root LPQ, then
// processes the LPQ queue depth-first (ANN-DFBI, Algorithm 3) with
// bi-directional node expansion and the Three-Stage pruning of
// Algorithm 4 down to the leaves of I_R, each of which is answered by one
// fused leaf join. Over MBRQT indexes this is MBA; over R*-trees, RBA.
//
// When ctx is cancelled (or its deadline passes), the traversal — serial
// or parallel — stops at the next loop boundary, releases its resources
// (no buffer-pool pin survives an abort) and returns ctx.Err(). A context that can never be cancelled
// (context.Background()) costs nothing: the cancellation machinery — one
// watcher goroutine flipping a shared atomic flag the engine polls — is
// only armed when ctx.Done() is non-nil.
func RunContext(ctx context.Context, ir, is index.Tree, opts Options, emit func(Result) error) (stats Stats, err error) {
	opts = opts.withDefaults()
	cancelled, disarm, err := armCancel(ctx)
	if err != nil {
		return stats, err
	}
	defer disarm()
	if ir.Dim() != is.Dim() {
		return stats, fmt.Errorf("core: index dimensionality mismatch: %d vs %d", ir.Dim(), is.Dim())
	}

	// Observability. tMark advances across the setup/seed/traverse
	// boundaries; the "query" span (and Wall) closes on every exit path.
	tr := opts.Tracer
	obsOn := tr != nil || opts.timings != nil
	var tQuery, tMark time.Time
	if obsOn {
		tQuery = time.Now()
		tMark = tQuery
		defer func() {
			now := time.Now()
			tr.Complete("query", obs.TidMain, tQuery, now, "results", int64(stats.Results))
			if opts.timings != nil {
				opts.timings.Wall += now.Sub(tQuery)
			}
		}()
	}

	caches := setupNodeCaches(ir, is, opts.NodeCacheBytes, opts.Parallelism)
	cachesBefore := cacheSnapshot(caches)
	defer func() { addCacheDelta(&stats, cachesBefore, cacheSnapshot(caches)) }()
	if tr != nil {
		tr.SetThreadName(obs.TidMain, "engine")
		tr.SetThreadName(obs.TidPool, "bufferpool")
		tr.SetThreadName(obs.TidCache, "nodecache")
		for _, p := range distinctPools(ir, is) {
			p.SetTracer(tr)
			defer p.SetTracer(nil)
		}
		for _, c := range caches {
			c.SetTracer(tr)
			defer c.SetTracer(nil)
		}
	}
	rootR, err := ir.Root()
	if err != nil {
		return stats, err
	}
	rootS, err := is.Root()
	if err != nil {
		return stats, err
	}
	if obsOn {
		now := time.Now()
		tr.Complete("setup", obs.TidMain, tMark, now, "", 0)
		if opts.timings != nil {
			opts.timings.Setup += now.Sub(tMark)
		}
		tMark = now
	}
	if rootR.Count == 0 {
		return stats, nil // nothing to query
	}
	e := &engine{ir: ir, is: is, opts: opts, emit: emit, stats: &stats,
		ctx: ctx, cancelled: cancelled,
		tr: tr, tid: obs.TidMain, tm: opts.timings}
	if opts.Sched != nil {
		defer func() { opts.Sched.Add(e.sched) }()
	}
	if rootS.Count == 0 {
		// No targets: every query object gets an empty neighbor list.
		return stats, e.emitEmpty(&rootR)
	}

	root := e.seedRoot(&rootR, &rootS)
	if obsOn {
		now := time.Now()
		tr.Complete("seed", obs.TidMain, tMark, now, "", 0)
		if opts.timings != nil {
			opts.timings.Seed += now.Sub(tMark)
		}
		tMark = now
	}

	if opts.Parallelism > 1 {
		err = e.runParallel(root, opts.Parallelism)
	} else {
		e.hints = newPageHints(ir, is)
		err = e.dfbi(root)
	}
	if obsOn {
		now := time.Now()
		tr.Complete("traverse", obs.TidMain, tMark, now, "results", int64(stats.Results))
		if opts.timings != nil {
			opts.timings.Traverse += now.Sub(tMark)
		}
	}
	return stats, err
}

// CollectContext runs the query and materialises all results. On early
// cancellation (see RunContext) the results gathered so far are returned
// alongside ctx.Err().
func CollectContext(ctx context.Context, ir, is index.Tree, opts Options) ([]Result, Stats, error) {
	var out []Result
	stats, err := RunContext(ctx, ir, is, opts, func(r Result) error {
		out = append(out, r)
		return nil
	})
	return out, stats, err
}

type engine struct {
	ir, is index.Tree
	opts   Options
	emit   func(Result) error
	// leafDone, when set, runs after each I_R leaf's rows went to emit: the
	// ordered parallel executor hands them on here.
	leafDone func() error
	stats    *Stats

	// Cancellation: cancelled is the flag the RunContext watcher goroutine
	// flips (nil when the context can never be cancelled, so the
	// paper-configuration hot path stays free of it); ctx supplies the
	// error to surface. A parallel worker polls its scheduler's stop flag
	// here instead, which cancellation and any worker's failure both set.
	ctx       context.Context
	cancelled *atomic.Bool

	// Observability: tr records stage spans on lane tid (parallel workers
	// get lanes of their own); tm accumulates the stage wall-time
	// breakdown. Both nil in the default configuration, where the only
	// overhead is the obsOn nil check per expandAndPrune call.
	tr  *obs.Tracer
	tid int64
	tm  *Timings

	// Per-engine scratch reused across expandAndPrune calls. The engine
	// is single-threaded (each parallel worker builds its own) and leaf
	// joins never nest, so one suffices.
	join leafJoin

	// sched accumulates the scheduler and leaf-join counters, merged
	// into Options.Sched at the end of the run.
	sched SchedStats

	// hints, set for a serial join over a pool smaller than the file,
	// tells the pool which pages the join has finished with.
	hints *pageHints
}

// seedRoot is Algorithm 2's first step: the root of I_R owns an LPQ
// holding the root of I_S.
func (e *engine) seedRoot(rootR, rootS *index.Entry) *lpq {
	root := newLPQ(rootR, infinity, e.opts.effectiveK(), e.stats)
	e.stats.DistanceCalcs++
	root.enqueue(lpqItem{e: rootS, mind: e.minDist(rootR, rootS), maxd: e.maxDist(rootR, rootS)})
	return root
}

// obsOn reports whether the engine records spans or stage timings.
func (e *engine) obsOn() bool { return e.tr != nil || e.tm != nil }

// checkCancel returns the context's error once the cancelled flag is up
// (errStopped when a parallel run stopped for another reason), nil
// otherwise. One atomic load when a flag is attached, one nil check when
// not — cheap enough for every traversal loop to poll.
func (e *engine) checkCancel() error {
	if e.cancelled != nil && e.cancelled.Load() {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		return errStopped
	}
	return nil
}

// dfbi is Algorithm 3 (ANN-DFBI): expand the input LPQ, then recurse into
// each child LPQ in FIFO order. The input LPQ is fully drained by the
// expansion and returns to the pool before the recursion (children never
// reference their parent queue).
func (e *engine) dfbi(q *lpq) error {
	if err := e.checkCancel(); err != nil {
		return err
	}
	children, err := e.expandAndPrune(q)
	if err != nil {
		return err
	}
	releaseLPQ(q)
	h := e.hints
	if h != nil {
		h.push(children)
	}
	for _, c := range children {
		if h != nil {
			h.start()
		}
		if err := e.dfbi(c); err != nil {
			return err
		}
	}
	if h != nil {
		h.pop()
	}
	return nil
}

// minDist is the squared MINMINDIST between a node owner and a candidate
// entry. It is the cheap half of Algorithm 4's Distances(); the engine
// evaluates it first and computes the pruning metric only for survivors.
func (e *engine) minDist(owner, cand *index.Entry) float64 {
	if cand.IsObject() {
		return geom.MinDistPointRectSq(cand.Point, owner.MBR)
	}
	return geom.MinDistSq(owner.MBR, cand.MBR)
}

// maxDist is the squared pruning upper bound (MAXD) between a node owner
// and a candidate entry.
func (e *engine) maxDist(owner, cand *index.Entry) float64 {
	if cand.IsObject() {
		// For a candidate point, every owner point is guaranteed this
		// neighbor within the maximum distance; both metrics coincide.
		return geom.MaxDistPointRectSq(cand.Point, owner.MBR)
	}
	return e.opts.Metric.BoundSq(owner.MBR, cand.MBR)
}

// probe offers a candidate to an LPQ: the cheap MIND test runs first and
// the metric is evaluated only if the candidate survives it.
func (e *engine) probe(c *lpq, cand *index.Entry) {
	e.stats.DistanceCalcs++
	mind := e.minDist(c.owner, cand)
	if mind > c.slackBound() {
		e.stats.PrunedOnProbe++
		return
	}
	c.enqueueChecked(lpqItem{e: cand, mind: mind, maxd: e.maxDist(c.owner, cand)})
}

// expandAndPrune is Algorithm 4 for a node owner: the Expand Stage
// distributes the queued candidates over freshly created child LPQs
// (Filter Stage pruning happens inside lpq.enqueue) and returns the
// children that kept candidates. A leaf of I_R — whose children are the
// query objects themselves — gets the fused leaf join instead: joinLeaf
// drains the candidates to object level into one accumulator table (each
// I_S node expanded once, shared by every object of the leaf), emitLeaf
// — the Gather Stage — emits every object's row from it, and no children
// are returned. Query objects never own an LPQ.
//
// With observability enabled (engine.obsOn) the call is an "expand" span
// nesting a "filter" span over the drain and, for a leaf, a "gather" span
// over the emit loop; Timings attributes the drain to Filter, the emit
// loop to Gather and the remainder to Expand, so the three stage totals
// are disjoint.
func (e *engine) expandAndPrune(q *lpq) ([]*lpq, error) {
	obsOn := e.obsOn()
	var tExpand time.Time
	if obsOn {
		tExpand = time.Now()
	}
	children, err := e.ir.Expand(q.owner)
	if err != nil {
		return nil, err
	}
	e.stats.NodesExpandedR++
	leaf := len(children) > 0 && children[0].Kind == index.ObjectEntry
	var lpqcs []*lpq
	if leaf {
		// A row never holds more than |S| candidates, so a k beyond it
		// sizes the table by |S|: the rows, and every decision made on
		// them, are those of k = |S|.
		e.join.reset(e, q, children, min(q.k, e.is.Len()))
		defer e.join.finish()
	} else {
		lpqcs = make([]*lpq, len(children))
		for i := range children {
			lpqcs[i] = newLPQ(&children[i], q.bound(), q.k, e.stats)
		}
	}

	var tDrain time.Time
	if obsOn {
		tDrain = time.Now()
	}
	if leaf {
		err = e.joinLeaf(q)
	} else {
		err = e.drainToChildren(q, lpqcs)
	}
	if err != nil {
		return nil, err
	}
	var tDrainEnd time.Time
	if obsOn {
		tDrainEnd = time.Now()
	}

	if leaf {
		err = e.emitLeaf()
		if err == nil && e.hints != nil {
			e.hints.afterLeaf(e.join.maxOwnerBound)
		}
	}
	out := lpqcs[:0]
	for _, c := range lpqcs {
		if c.len() > 0 {
			out = append(out, c)
		} else if c.owner.Count > 0 {
			return nil, errStarved(c.owner)
		} else {
			releaseLPQ(c)
		}
	}
	if obsOn {
		end := time.Now()
		drain := tDrainEnd.Sub(tDrain)
		var gather time.Duration
		e.tr.Complete("filter", e.tid, tDrain, tDrainEnd, "kept", int64(len(out)))
		if leaf {
			gather = end.Sub(tDrainEnd)
			e.tr.Complete("gather", e.tid, tDrainEnd, end, "rows", int64(len(children)))
		}
		e.tr.Complete("expand", e.tid, tExpand, end, "children", int64(len(children)))
		if e.tm != nil {
			e.tm.Filter += drain
			e.tm.Gather += gather
			e.tm.Expand += end.Sub(tExpand) - drain - gather
		}
	}
	return out, err
}

// errStarved reports an owner with data but no candidates. It is an
// internal invariant, not a state a query can reach: node-level bounds are
// exact upper bounds on the owner's k-th neighbor distance, so while S is
// not empty some candidate always passes them.
func errStarved(owner *index.Entry) error {
	return fmt.Errorf("core: child LPQ starved for owner %v", owner.MBR)
}

// discardRest accounts a terminal cut: the already-dequeued item it plus
// everything still queued in q is discarded wholesale. Node entries count
// as pruned subtrees, object entries as pruned entries. Purely a
// counting helper — the caller stops consuming the queue either way.
func (e *engine) discardRest(q *lpq, it lpqItem) {
	var nodes, objs uint64
	if it.e.IsObject() {
		objs++
	} else {
		nodes++
	}
	for _, rem := range q.items[q.head:] {
		if rem.e.IsObject() {
			objs++
		} else {
			nodes++
		}
	}
	e.stats.PrunedSubtrees += nodes
	e.stats.PrunedEntries += objs
}

// drainToChildren is the Expand Stage for an internal owner: the parent
// queue's candidates are dequeued best-first, expanded one level in I_S
// when they are nodes, and probed against every child LPQ.
func (e *engine) drainToChildren(q *lpq, lpqcs []*lpq) error {
	for {
		if err := e.checkCancel(); err != nil {
			return err
		}
		// Entries whose MIND exceeds every child's bound are useless; the
		// queue is MIND-ordered, so the first such entry ends the loop.
		maxBound := math.Inf(-1)
		for _, c := range lpqcs {
			if b := c.slackBound(); b > maxBound {
				maxBound = b
			}
		}
		it, ok := q.dequeue()
		if !ok {
			return nil
		}
		if it.mind > maxBound {
			e.discardRest(q, it)
			return nil
		}
		if it.e.IsObject() {
			// An object cannot be expanded further; probe it directly.
			for _, c := range lpqcs {
				e.probe(c, it.e)
			}
			continue
		}
		cands, err := e.is.Expand(it.e)
		if err != nil {
			return err
		}
		e.stats.NodesExpandedS++
		for ci := range cands {
			cand := &cands[ci]
			for _, c := range lpqcs {
				e.probe(c, cand)
			}
		}
	}
}

// leafJoin is the fused leaf join of one I_R leaf: the coordinates and
// admission bounds of the leaf's m owners (the query objects), one k-best
// accumulator row per owner and the candidate-node work heap. One lives
// per engine (so per parallel worker), reset for each leaf: the join
// allocates nothing in steady state. DESIGN.md §13 has the long form.
//
// Owner i's row is its fill[i] <= k nearest candidates so far: dist[i*k:]
// squared distances, ascending, and ref[i*k:] indexes into cands, the
// leaf's append-only table of every candidate some owner retained — flat
// and pointer-free, so an insertion meets no write barrier. Insertion is
// stable (equal distances keep arrival order, slot k falls off): a row is
// the first k of the stream in (distance, arrival) order, and is emitted
// in that order.
//
// bounds[i] is owner i's admission bound. Between objects MIND = MAXD =
// the exact distance, so a row yields one bound, its k-th distance: once
// full, bounds[i] = min(inherited, k-th) x (1+boundSlack); until then only
// the inherited bound applies. The prefilter, the admission test and the
// work-heap cut all read the live bounds, so each candidate is decided
// the moment it arrives, owner by owner, exactly as the scalar oracle in
// batchjoin_test.go decides it.
type leafJoin struct {
	e         *engine // stats and sched of the engine running the join
	dim, m, k int
	owners    []index.Entry
	leafMBR   geom.Rect
	// The object/object distances of the leaf-level join dominate the
	// whole ANN computation, so the owners' coordinates are packed for the
	// loop in add: in 2-D as two columns xs and ys, otherwise as one flat
	// row-major matrix.
	xs, ys    []float64
	flat      []float64
	inherited float64 // the leaf owner's LPQ bound, valid for every owner (Lemma 3.2)
	bounds    []float64

	dist  []float64
	ref   []uint32
	fill  []int
	cands []*index.Entry

	// maxOwnerBound caches max(bounds) and maxOwners counts the owners
	// at it: bounds only tighten, so the O(owners) rescan waits until the
	// last of them has.
	maxOwnerBound float64
	maxOwners     int
	work          pq.Heap[*index.Entry]
}

// reset points the scratch at a new leaf owner q and its query objects,
// with rows of k candidates.
func (j *leafJoin) reset(e *engine, q *lpq, owners []index.Entry, k int) {
	m := len(owners)
	j.e = e
	j.dim, j.m, j.k = len(owners[0].Point), m, k
	j.owners = owners
	j.leafMBR = q.owner.MBR
	j.xs, j.ys, j.flat = j.xs[:0], j.ys[:0], j.flat[:0]
	j.bounds = slices.Grow(j.bounds[:0], m)[:m]
	j.fill = slices.Grow(j.fill[:0], m)[:m]
	j.dist = slices.Grow(j.dist[:0], m*j.k)[:m*j.k]
	j.ref = slices.Grow(j.ref[:0], m*j.k)[:m*j.k]
	j.inherited = q.bound()
	start := j.inherited + j.inherited*boundSlack
	for i := range owners {
		p := owners[i].Point
		if j.dim == 2 {
			j.xs, j.ys = append(j.xs, p[0]), append(j.ys, p[1])
		} else {
			j.flat = append(j.flat, p...)
		}
		j.bounds[i] = start
		j.fill[i] = 0
	}
	j.refreshMaxOwnerBound()
}

// finish drops the references held by the scratch so evicted cache
// slices are not pinned between leaves.
func (j *leafJoin) finish() {
	j.owners = nil
	j.leafMBR = geom.Rect{}
	clear(j.cands)
	j.cands = j.cands[:0]
	j.work.Reset()
	j.e = nil
}

func (j *leafJoin) refreshMaxOwnerBound() {
	j.maxOwnerBound = math.Inf(-1)
	j.maxOwners = 0
	for _, b := range j.bounds {
		switch {
		case b > j.maxOwnerBound:
			j.maxOwnerBound = b
			j.maxOwners = 1
		case b == j.maxOwnerBound:
			j.maxOwners++
		}
	}
}

// admit commits one (owner, candidate) pair whose squared distance d
// passed the owner's admission bound: a stable bounded insertion into the
// owner's row, after which a full row's k-th distance, when tighter than
// the inherited bound, tightens the admission bound (the cached max needs
// a rescan only when the last owner at it tightened).
// ref is the candidate's index in cands, or -1 while no owner has retained
// it yet; the (possibly assigned) index is returned.
func (j *leafJoin) admit(i int, d float64, cand *index.Entry, ref int) int {
	j.e.stats.Enqueued++
	k := j.k
	row := j.dist[i*k : i*k+k]
	n := j.fill[i]
	if n == k {
		// One entry falls off slot k: the candidate itself when it ties or
		// trails the k-th (it passed only by the slack), else the k-th.
		j.e.stats.PrunedByFilter++
		if d >= row[k-1] {
			return ref
		}
		n--
	} else {
		j.fill[i] = n + 1
	}
	if ref < 0 {
		ref = len(j.cands)
		j.cands = append(j.cands, cand)
	}
	refs := j.ref[i*k : i*k+k]
	for ; n > 0 && row[n-1] > d; n-- {
		row[n], refs[n] = row[n-1], refs[n-1]
	}
	row[n], refs[n] = d, uint32(ref)
	if j.fill[i] == k {
		b := j.inherited
		if row[k-1] < b {
			b = row[k-1]
		}
		b += b * boundSlack
		if j.bounds[i] == j.maxOwnerBound && b < j.maxOwnerBound {
			j.maxOwners--
		}
		j.bounds[i] = b
		if j.maxOwners == 0 {
			j.refreshMaxOwnerBound()
		}
	}
	return ref
}

// add decides one candidate object against every owner of the leaf. The
// prefilter comes first: farther from the leaf MBR than every owner's
// bound means no owner can admit it, and most candidates fall here for
// one distance evaluation. A survivor's squared distance to each owner is
// compared with that owner's live bound as soon as the sum is complete,
// and admitted in owner order. Every sum adds its dimensions in ascending
// order, so it is bit for bit the scalar probe's distance.
func (j *leafJoin) add(cand *index.Entry) {
	cp := cand.Point
	st := j.e.stats
	st.DistanceCalcs++
	if geom.MinDistPointRectSq(cp, j.leafMBR) > j.maxOwnerBound {
		st.PrunedOnProbe += uint64(j.m)
		return
	}
	m := uint64(j.m)
	st.DistanceCalcs += m
	j.e.sched.KernelPairs += m
	enqueued := st.Enqueued
	if j.dim == 2 {
		bounds := j.bounds
		xs, ys := j.xs[:len(bounds)], j.ys[:len(bounds)]
		cx, cy, ref := cp[0], cp[1], -1
		for i, b := range bounds {
			dx := xs[i] - cx
			dy := ys[i] - cy
			if d := dx*dx + dy*dy; d <= b {
				ref = j.admit(i, d, cand, ref)
			}
		}
	} else {
		j.addGeneric(cand)
	}
	// Each admission counted one Enqueued; every other owner pruned it.
	st.PrunedOnProbe += m - (st.Enqueued - enqueued)
}

// addGeneric is add's distance loop in any dimension but 2. A single
// pair's sum is one dependent chain of adds, so the body takes four
// owners at once with four independent accumulators, which the processor
// overlaps, and compares the four sums in owner order once they are
// complete. The owners left over (m mod 4) take the scalar loop.
func (j *leafJoin) addGeneric(cand *index.Entry) {
	cp, dim, flat, bounds := cand.Point, j.dim, j.flat, j.bounds
	ref, i := -1, 0
	for ; i+4 <= j.m; i += 4 {
		p0 := flat[i*dim : (i+1)*dim]
		p1 := flat[(i+1)*dim : (i+2)*dim]
		p2 := flat[(i+2)*dim : (i+3)*dim]
		p3 := flat[(i+3)*dim : (i+4)*dim]
		var s0, s1, s2, s3 float64
		for d, c := range cp {
			d0, d1, d2, d3 := p0[d]-c, p1[d]-c, p2[d]-c, p3[d]-c
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for x, s := range [4]float64{s0, s1, s2, s3} {
			if s <= bounds[i+x] {
				ref = j.admit(i+x, s, cand, ref)
			}
		}
	}
	for ; i < j.m; i++ {
		op := flat[i*dim : (i+1)*dim]
		var s float64
		for d, c := range cp {
			diff := op[d] - c
			s += diff * diff
		}
		if s <= bounds[i] {
			ref = j.admit(i, s, cand, ref)
		}
	}
}

// joinLeaf drains the candidates of leaf owner q's LPQ into the owners'
// accumulators, expanding candidate nodes (best-first by MIND to the leaf
// owner) until only objects remain — index heights need not align across
// branches, so candidates may still be several levels up. Nodes whose
// MIND exceeds every owner's bound are discarded along with everything
// farther.
func (e *engine) joinLeaf(q *lpq) error {
	j := &e.join
	for {
		it, ok := q.dequeue()
		if !ok {
			break
		}
		if it.e.Kind == index.ObjectEntry {
			j.add(it.e)
		} else {
			j.work.Push(it.mind, it.e)
		}
	}
	for j.work.Len() > 0 {
		if err := e.checkCancel(); err != nil {
			return err
		}
		item, _ := j.work.Pop()
		maxBound := j.maxOwnerBound
		if item.Key > maxBound {
			e.stats.PrunedSubtrees += 1 + uint64(j.work.Len())
			break
		}
		cands, err := e.is.Expand(item.Value)
		if err != nil {
			return err
		}
		e.stats.NodesExpandedS++
		for ci := range cands {
			cand := &cands[ci]
			if cand.Kind == index.ObjectEntry {
				j.add(cand)
				continue
			}
			e.stats.DistanceCalcs++
			mind := e.minDist(q.owner, cand)
			if mind <= maxBound {
				j.work.Push(mind, cand)
			} else {
				e.stats.PrunedOnProbe++
			}
		}
	}
	return nil
}

// emitLeaf is the Gather Stage of the fused leaf join: every owner's row
// is already its k nearest candidates in (distance, arrival) order, so
// each result is read straight off the accumulator table — the
// ExcludeSelf skip, the cut to K and the square roots are paid here.
// Arrival order is a function of the traversal alone, so equal-distance
// neighbors come out in the same order serial or parallel, cached or not.
func (e *engine) emitLeaf() error {
	j := &e.join
	for i, n := range j.fill {
		r := &j.owners[i]
		if n == 0 {
			return errStarved(r)
		}
		row, refs := j.dist[i*j.k:i*j.k+n], j.ref[i*j.k:i*j.k+n]
		neighbors := make([]Neighbor, 0, min(n, e.opts.K))
		selfSeen := false
		for x, d := range row {
			c := j.cands[refs[x]]
			if e.opts.ExcludeSelf && !selfSeen && c.Object == r.Object {
				selfSeen = true
				continue
			}
			if len(neighbors) == e.opts.K {
				break
			}
			neighbors = append(neighbors, Neighbor{ID: uint64(c.Object), Point: c.Point, Dist: math.Sqrt(d)})
		}
		e.stats.Results++
		if err := e.emit(Result{ID: uint64(r.Object), Point: r.Point, Neighbors: neighbors}); err != nil {
			return err
		}
	}
	if e.leafDone != nil {
		return e.leafDone()
	}
	return nil
}

// emitEmpty walks the query index emitting empty results (used when the
// target index holds no points).
func (e *engine) emitEmpty(entry *index.Entry) error {
	if err := e.checkCancel(); err != nil {
		return err
	}
	if entry.IsObject() {
		e.stats.Results++
		return e.emit(Result{ID: uint64(entry.Object), Point: entry.Point})
	}
	if entry.Count == 0 {
		return nil
	}
	children, err := e.ir.Expand(entry)
	if err != nil {
		return err
	}
	for i := range children {
		if err := e.emitEmpty(&children[i]); err != nil {
			return err
		}
	}
	return nil
}
