package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"allnn/internal/obs"
)

// subtreesPerWorker is the initial frontier granularity: the serial
// prefix of the traversal is expanded until at least
// Parallelism*subtreesPerWorker subtrees exist (or no further expansion
// is possible). Oversized subtrees are split as they are claimed, so the
// frontier only needs to be wide enough to start every worker.
const subtreesPerWorker = 4

// splitDivisor and minSplitCount parameterise the dynamic-split
// heuristic: a claimed node-owner task is re-expanded into child tasks
// instead of drained in place when its subtree holds more than
// max(total/(workers*splitDivisor), minSplitCount) points. The divisor
// keeps the largest schedulable unit at a fraction of a fair share, so a
// skewed frontier cannot leave one worker draining a giant subtree while
// the rest idle; the floor stops the scheduler from shredding small
// subtrees into tasks that cost more to claim than to run.
const (
	splitDivisor  = 8
	minSplitCount = 64
)

// parkedTasksPerWorker sets the ordered-emit window: a worker claims a
// task ahead of the emit cursor only while the finished rows parked ahead
// of the cursor number at most workers*parkedTasksPerWorker*threshold
// (threshold being the split threshold, the size of the largest task).
// Every worker may still finish the task it holds when the window closes,
// so rows produced and not yet handed to the caller never exceed
// workers*(parkedTasksPerWorker+1) tasks' worth. Not a knob: to park less,
// make tasks smaller (splitDivisor), not the window wider.
const parkedTasksPerWorker = 2

// errStopped is what a worker's traversal returns when another worker's
// failure stopped the run; the scheduler keeps the first error, so it
// never reaches the caller.
var errStopped = errors.New("core: run stopped")

// runParallel is the parallel form of Algorithm 3 (ANN-DFBI). The
// children of any I_R node carry independent candidate sets and bounds
// (each child LPQ inherits its bound at creation and never reads its
// siblings), so distinct subtrees of the query index can be drained
// concurrently with zero coordination beyond stats aggregation and emit
// serialisation.
//
// The root of I_R (and as many further levels as needed) is expanded
// serially into a frontier of LPQs whose concatenated depth-first
// traversal equals the serial traversal exactly (a leaf of I_R is the
// atomic unit: its fused join emits the leaf's rows in one piece, into
// its place in that order). The frontier seeds one task stack kept in
// depth-first order: every worker pops the top — the earliest unclaimed
// subtree — so the workers advance through the traversal together, as the
// paper's depth-first MBA does alone. A claimed task whose subtree exceeds
// the split threshold is re-expanded into child tasks — exactly the
// expandAndPrune call the serial traversal would make, so a split wastes
// no work and preserves Stats parity by construction — which take their
// parent's place in the order.
//
// Every worker keeps a private Stats, merged at the end, so counter
// totals match a serial run. Emission is either unordered (mutex-guarded
// callback) or order-preserving through the emit tree, whose cursor
// streams the rows of the earliest unfinished task as its leaves are
// joined — byte-identical to serial output, with a bounded window of
// finished rows parked ahead of it.
func (e *engine) runParallel(root *lpq, workers int) error {
	s, err := e.newScheduler(root, workers)
	if err != nil {
		return err
	}
	return s.run(workers)
}

// frontierItem is one depth-first-ordered unit of the serial prefix: a
// pending LPQ subtree (q), or — where the prefix reached a leaf of I_R,
// whose fused join emits rows instead of returning child LPQs — that
// leaf's finished rows.
type frontierItem struct {
	q    *lpq
	rows []Result
}

// buildFrontier expands the query index serially, level by level, until
// the frontier holds at least target items or nothing expandable remains.
// Each node-owner LPQ is replaced in place by its children, so the
// concatenation of the frontier items' depth-first traversals is exactly
// the serial traversal order. A leaf met on the way emits its rows at
// once when order is free, into its place in the frontier otherwise.
func (e *engine) buildFrontier(root *lpq, target int) ([]frontierItem, error) {
	var rows []Result
	if e.opts.OrderedEmit {
		e.emit = func(r Result) error {
			rows = append(rows, r)
			return nil
		}
	}
	frontier := []frontierItem{{q: root}}
	for {
		if err := e.checkCancel(); err != nil {
			return nil, err
		}
		expandable := 0
		for _, it := range frontier {
			if it.q != nil {
				expandable++
			}
		}
		if expandable == 0 || len(frontier) >= target {
			return frontier, nil
		}
		next := make([]frontierItem, 0, len(frontier)*2)
		for _, it := range frontier {
			if it.q == nil {
				next = append(next, it)
				continue
			}
			children, err := e.expandAndPrune(it.q)
			if err != nil {
				return nil, err
			}
			releaseLPQ(it.q)
			if len(rows) > 0 {
				next = append(next, frontierItem{rows: rows})
				rows = nil
			}
			for _, c := range children {
				next = append(next, frontierItem{q: c})
			}
		}
		frontier = next
	}
}

// scheduler hands the task tree's unclaimed leaves to the workers in
// depth-first order. stack holds them sorted, leftmost on top; running
// counts claimed tasks not yet retired, and a task is retired only after
// any children it split into were pushed, so an empty stack with nothing
// running means the whole tree is drained.
//
// Ordered emit adds the window: a claim ahead of the emit cursor waits
// while more than window finished rows are parked (emitTree.parked). This
// cannot deadlock. The cursor stands on the leftmost unfinished leaf, and
// everything left of it is finished, so that leaf is either the top of the
// stack — whose claim is exempt from the window — or held by a worker that
// is running it, streams its rows without waiting, and moves the cursor on
// (waking the waiters) when it finishes or splits.
type scheduler struct {
	e         *engine
	userEmit  func(Result) error
	tree      *emitTree
	threshold uint64
	window    int64
	timed     bool
	hist      *obs.Histogram // "engine.subtree_nanos", nil without a registry

	stop   atomic.Bool // set by fail; polled by every worker's checkCancel
	emitMu sync.Mutex  // serialises the callback in unordered mode

	mu      sync.Mutex
	cond    sync.Cond
	stack   []*emitSlot
	running int
	claims  int64
	err     error
	// onClaim, when set (tests), sees every claim and the tasks left
	// unclaimed, under mu.
	onClaim func(claimed *emitSlot, unclaimed []*emitSlot)
}

// newScheduler expands the serial prefix and seeds the stack with it;
// leaves the prefix already joined go straight to their emit slots.
func (e *engine) newScheduler(root *lpq, workers int) (*scheduler, error) {
	s := &scheduler{e: e}
	s.cond.L = &s.mu
	// The callback as the caller gave it (ordered, buildFrontier redirects
	// e.emit into the frontier); its first error stops the run at once.
	emit := e.emit
	s.userEmit = func(r Result) error {
		err := emit(r)
		if err != nil {
			s.fail(err)
		}
		return err
	}
	s.threshold = max(uint64(root.owner.Count)/uint64(workers*splitDivisor), minSplitCount)
	s.window = int64(workers*parkedTasksPerWorker) * int64(s.threshold)
	var tFrontier time.Time
	if e.obsOn() {
		tFrontier = time.Now()
	}
	frontier, err := e.buildFrontier(root, workers*subtreesPerWorker)
	if e.obsOn() {
		now := time.Now()
		e.tr.Complete("frontier", obs.TidMain, tFrontier, now, "subtrees", int64(len(frontier)))
		if e.tm != nil {
			e.tm.Frontier += now.Sub(tFrontier)
		}
	}
	if err != nil {
		return nil, err
	}

	// Per-subtree drain times feed the "engine.subtree_nanos" histogram —
	// the skew diagnostic for the decomposition — when a metrics registry
	// is attached.
	if e.opts.Registry != nil {
		s.hist = e.opts.Registry.Histogram("engine.subtree_nanos", obs.LatencyBuckets())
	}
	s.timed = e.tr != nil || s.hist != nil

	var slots []*emitSlot
	s.tree, slots = newEmitTree(s.userEmit, len(frontier))
	for i, it := range frontier {
		if it.q != nil {
			slots[i].q = it.q
			s.stack = append(s.stack, slots[i])
		} else if _, err := s.tree.finish(slots[i], it.rows); err != nil {
			return nil, err
		}
	}
	slices.Reverse(s.stack)
	return s, nil
}

// run drains the task tree with the given number of workers and returns
// the first error.
func (s *scheduler) run(workers int) error {
	// Cancellation stops the run like any failure, waking workers that
	// wait on the window or an empty stack.
	unwatch := context.AfterFunc(s.e.ctx, func() { s.fail(s.e.ctx.Err()) })
	defer unwatch()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.work(w)
		}(w)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// work is one worker: claim the earliest unclaimed task, split it or
// drain it, until the tree is drained or the run stops.
func (s *scheduler) work(w int) {
	e := s.e
	var wstats Stats
	wtid := obs.TidWorkerBase + int64(w)
	var wtm *Timings
	if e.tm != nil {
		wtm = &Timings{}
	}
	we := &engine{ir: e.ir, is: e.is, opts: e.opts, stats: &wstats,
		ctx: e.ctx, cancelled: &s.stop,
		tr: e.tr, tid: wtid, tm: wtm}
	var (
		t   *emitSlot // the task in hand
		buf []Result  // its rows not yet handed on (ordered mode)
	)
	if e.opts.OrderedEmit {
		we.emit = func(r Result) error {
			buf = append(buf, r)
			return nil
		}
		// Rows leave at leaf granularity while the cursor stands on t, and
		// wait in buf — no lock touched — while it does not.
		we.leafDone = func() error {
			if s.tree.cursor.Load() != t {
				return nil
			}
			err := s.tree.stream(buf)
			clear(buf)
			buf = buf[:0]
			return err
		}
	} else {
		we.emit = func(r Result) error {
			s.emitMu.Lock()
			defer s.emitMu.Unlock()
			if s.stop.Load() {
				return errStopped
			}
			return s.userEmit(r)
		}
	}
	var wSpan obs.Span
	if e.tr != nil {
		e.tr.SetThreadName(wtid, fmt.Sprintf("worker-%d", w))
		wSpan = e.tr.Begin("worker", wtid)
	}
	for {
		if t = s.claim(); t == nil {
			break
		}
		// Task LPQs were created under another goroutine's Stats; re-point
		// at this worker's private counters before touching them.
		q := t.q
		t.q = nil
		q.stats = &wstats

		var tSub time.Time
		if s.timed {
			tSub = time.Now()
		}
		var children []*lpq
		var err error
		if uint64(q.owner.Count) > s.threshold {
			// Straggler: split instead of draining in place.
			if children, err = we.expandAndPrune(q); err == nil {
				releaseLPQ(q)
			}
		} else {
			err = we.dfbi(q)
		}
		if err == nil && len(children) > 0 {
			we.sched.Splits++
			if e.tr != nil {
				e.tr.Complete("split", wtid, tSub, time.Now(), "children", int64(len(children)))
			}
			s.retire(s.tree.split(t, children))
			continue
		}
		// The task is drained: dfbi ran its subtree to completion, or the
		// split attempt met an I_R leaf (whose fused join emitted its rows
		// in place) or a subtree that pruned to nothing.
		if err == nil && e.opts.OrderedEmit {
			var flushed bool
			if flushed, err = s.tree.finish(t, buf); flushed {
				clear(buf)
				buf = buf[:0]
				s.wake() // the cursor moved
			} else {
				buf = nil // parked in the slot
			}
		}
		if err != nil {
			s.fail(err)
			s.retire(nil)
			break
		}
		if s.timed {
			end := time.Now()
			e.tr.Complete("subtree", wtid, tSub, end, "subtree", t.seq)
			s.hist.Observe(float64(end.Sub(tSub).Nanoseconds()))
		}
		we.sched.Tasks++
		s.retire(nil)
	}
	wSpan.End()
	s.mu.Lock()
	e.stats.Add(wstats)
	e.sched.Add(we.sched)
	if wtm != nil {
		e.tm.addStages(*wtm)
	}
	s.mu.Unlock()
}

// claim pops the earliest unclaimed task, waiting while the stack is
// empty but tasks that may still split are running, or while the window
// is full and the top task is not the cursor's. It returns nil once the
// tree is drained or the run stopped.
func (s *scheduler) claim() *emitSlot {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stop.Load() {
		if n := len(s.stack); n > 0 {
			t := s.stack[n-1]
			if s.tree.parked.Load() <= s.window || s.tree.cursor.Load() == t {
				s.stack[n-1] = nil
				s.stack = s.stack[:n-1]
				s.running++
				t.seq = s.claims
				s.claims++
				if s.onClaim != nil {
					s.onClaim(t, s.stack)
				}
				return t
			}
		} else if s.running == 0 {
			return nil
		}
		s.cond.Wait()
	}
	return nil
}

// retire ends a claimed task. The children it split into (consecutive in
// depth-first order) go on the stack first, below whatever precedes them:
// usually nothing, so they land on top, but a task claimed earlier may
// have split meanwhile.
func (s *scheduler) retire(kids []*emitSlot) {
	s.mu.Lock()
	if len(kids) > 0 {
		i := len(s.stack)
		for i > 0 && before(s.stack[i-1], kids[0]) {
			i--
		}
		s.stack = slices.Insert(s.stack, i, kids...)
		slices.Reverse(s.stack[i : i+len(kids)])
	}
	s.running--
	if len(kids) > 0 || s.running+len(s.stack) == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// wake re-evaluates every waiting claim after the cursor moved. Taking mu
// orders the broadcast after a waiter's check of the old state.
func (s *scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail records the first error, stops the run and wakes waiting workers.
func (s *scheduler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.stop.Store(true)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// emitSlot is one node of the task tree: a leaf is one subtree task (q,
// until claimed), an internal node a task that split. The depth-first
// order of the leaves is the serial traversal order at every moment — the
// frontier is depth-first ordered, and a split replaces a leaf by its
// depth-first-ordered children in place.
type emitSlot struct {
	parent     *emitSlot
	idx, depth int // position among parent's children, distance from the root
	q          *lpq
	seq        int64 // claim ordinal, for tracing

	// Guarded by emitTree.mu.
	children []*emitSlot
	done     bool
	buf      []Result // rows of a finished leaf the cursor has yet to reach
}

// before reports whether leaf a precedes leaf b in depth-first order.
func before(a, b *emitSlot) bool {
	for a.depth > b.depth {
		a = a.parent
	}
	for b.depth > a.depth {
		b = b.parent
	}
	for a.parent != b.parent {
		a, b = a.parent, b.parent
	}
	return a.idx < b.idx
}

// emitTree releases rows in depth-first leaf order. The cursor stands on
// the leftmost unfinished leaf, and is the right to call emit: only the
// worker running that leaf — or the one that just finished it, while it
// flushes the finished leaves behind it — calls the user callback, so the
// callback is never invoked concurrently, needs no dedicated goroutine
// and runs outside mu (a worker parking its rows never queues behind the
// caller's socket write). The order survives dynamic splits, which simply
// deepen the tree under the split slot.
type emitTree struct {
	emit   func(Result) error
	cursor atomic.Pointer[emitSlot]
	parked atomic.Int64 // rows in finished leaves awaiting the cursor

	mu sync.Mutex // guards the slots' children, done and buf
}

// newEmitTree builds the tree over the n frontier subtrees and returns
// their leaf slots.
func newEmitTree(emit func(Result) error, n int) (*emitTree, []*emitSlot) {
	t := &emitTree{emit: emit}
	slots := t.split(&emitSlot{}, make([]*lpq, n))
	if n > 0 {
		t.cursor.Store(slots[0])
	}
	return t, slots
}

// split turns leaf s into an internal node with one fresh leaf per
// subtree, taking the cursor down with it. Called by the worker that owns
// s, instead of finish.
func (t *emitTree) split(s *emitSlot, qs []*lpq) []*emitSlot {
	kids := make([]*emitSlot, len(qs))
	for i, q := range qs {
		kids[i] = &emitSlot{parent: s, idx: i, depth: s.depth + 1, q: q}
	}
	t.mu.Lock()
	s.children = kids
	if t.cursor.Load() == s {
		t.cursor.Store(kids[0])
	}
	t.mu.Unlock()
	return kids
}

// stream hands rows to the caller. Only for the worker the cursor stands
// on (see emitTree).
func (t *emitTree) stream(rows []Result) error {
	for _, r := range rows {
		if err := t.emit(r); err != nil {
			return err
		}
	}
	return nil
}

// finish ends leaf s with the rows its worker still holds. Ahead of the
// cursor they are parked in the slot and finish reports false. At the
// cursor they are flushed, with every finished leaf that follows, and the
// cursor moves to the next unfinished leaf; an emit error leaves it where
// it is, so nothing is emitted after a failure.
func (t *emitTree) finish(s *emitSlot, rows []Result) (flushed bool, err error) {
	t.mu.Lock()
	s.done, s.buf = true, rows
	t.parked.Add(int64(len(rows)))
	if t.cursor.Load() != s {
		t.mu.Unlock()
		return false, nil
	}
	for s != nil && s.done {
		rows, s.buf = s.buf, nil
		t.mu.Unlock()
		err := t.stream(rows)
		t.parked.Add(-int64(len(rows)))
		if err != nil {
			return true, err
		}
		t.mu.Lock()
		s = successor(s)
		t.cursor.Store(s)
	}
	t.mu.Unlock()
	return true, nil
}

// successor returns the leaf after s in depth-first order, nil after the
// last. Called with emitTree.mu held.
func successor(s *emitSlot) *emitSlot {
	for p := s.parent; p != nil; s, p = p, p.parent {
		if s.idx+1 < len(p.children) {
			s = p.children[s.idx+1]
			for s.children != nil {
				s = s.children[0]
			}
			return s
		}
	}
	return nil
}
