package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"allnn/internal/obs"
)

// subtreesPerWorker is the initial frontier granularity: the serial
// prefix of the traversal is expanded until at least
// Parallelism*subtreesPerWorker subtrees exist (or no further expansion
// is possible). The work-stealing scheduler splits stragglers
// dynamically, so the frontier only needs to be wide enough to give
// every worker a starting block.
const subtreesPerWorker = 4

// splitDivisor and minSplitCount parameterise the dynamic-split
// heuristic: a claimed node-owner task is re-expanded into child tasks
// instead of drained in place when its subtree holds more than
// max(total/(workers*splitDivisor), minSplitCount) points. The divisor
// keeps the largest schedulable unit at a fraction of a fair share, so a
// skewed frontier cannot leave one worker draining a giant subtree while
// the rest idle; the floor stops the scheduler from shredding small
// subtrees into tasks that cost more to steal than to run.
const (
	splitDivisor  = 8
	minSplitCount = 64
)

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
// its place in that order). The frontier seeds a
// work-stealing scheduler: each worker owns a deque of subtree tasks,
// pops locally from the tail (LIFO — depth-first order, warm caches) and
// steals from another worker's head (FIFO — the oldest, typically
// largest subtree) when its own deque runs dry. A claimed task whose
// subtree exceeds the split threshold is re-expanded into child tasks —
// exactly the expandAndPrune call the serial traversal would make, so a
// split wastes no work and preserves Stats parity by construction.
//
// Every worker keeps a private Stats, merged at the end, so counter
// totals match a serial run. Emission is either unordered (mutex-guarded
// callback, fastest) or order-preserving through an emit tree whose
// depth-first leaf order is the serial traversal order even as splits
// grow it — byte-identical to serial output.
func (e *engine) runParallel(root *lpq, workers int) error {
	totalCount := uint64(root.owner.Count)
	userEmit := e.emit // ordered, buildFrontier redirects e.emit into the frontier
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
		return err
	}
	n := len(frontier)
	if n == 0 {
		return nil
	}

	threshold := totalCount / uint64(workers*splitDivisor)
	if threshold < minSplitCount {
		threshold = minSplitCount
	}

	// Per-subtree drain times feed the "engine.subtree_nanos" histogram —
	// the skew diagnostic for the decomposition — when a metrics registry
	// is attached.
	var subtreeHist *obs.Histogram
	if e.opts.Registry != nil {
		subtreeHist = e.opts.Registry.Histogram("engine.subtree_nanos", obs.LatencyBuckets())
	}
	timed := e.tr != nil || subtreeHist != nil

	s := newScheduler(workers, threshold)

	// Emission strategy shared by the workers.
	var (
		emitMu sync.Mutex // unordered mode
		tree   *emitTree  // ordered mode
	)
	var rootSlots []*emitSlot
	if e.opts.OrderedEmit {
		tree, rootSlots = newEmitTree(userEmit, n)
	}

	// Seed the deques: worker w starts with a contiguous block of the
	// depth-first frontier, pushed in reverse so its LIFO pops drain the
	// block in depth-first order (thieves take the block's tail first).
	// Leaves the serial prefix already joined go to their emit slots.
	tasks := 0
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		for i := hi - 1; i >= lo; i-- {
			if frontier[i].q == nil {
				if err := tree.finish(rootSlots[i], frontier[i].rows); err != nil {
					return err
				}
				continue
			}
			t := &wsTask{q: frontier[i].q, seq: int64(i)}
			if tree != nil {
				t.slot = rootSlots[i]
			}
			s.deques[w].push(t)
			tasks++
		}
	}
	s.pending.Store(int64(tasks))
	s.queued.Store(int64(tasks))
	s.nextSeq.Store(int64(n))

	var statsMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wstats Stats
			wtid := obs.TidWorkerBase + int64(w)
			var wtm *Timings
			if e.tm != nil {
				wtm = &Timings{}
			}
			we := &engine{ir: e.ir, is: e.is, opts: e.opts, stats: &wstats,
				shrink: e.shrink,
				ctx:    e.ctx, cancelled: e.cancelled,
				tr: e.tr, tid: wtid, tm: wtm}
			// buf collects the rows of the task in hand (ordered mode).
			var buf []Result
			we.emit = func(r Result) error {
				buf = append(buf, r)
				return nil
			}
			if tree == nil {
				we.emit = func(r Result) error {
					emitMu.Lock()
					defer emitMu.Unlock()
					return userEmit(r)
				}
			}
			var wSpan obs.Span
			if e.tr != nil {
				e.tr.SetThreadName(wtid, fmt.Sprintf("worker-%d", w))
				wSpan = e.tr.Begin("worker", wtid)
			}
			for !s.stop.Load() {
				// A cancelled context stops the claim loop too, so workers
				// cannot pick up fresh subtrees after the deadline; dfbi's
				// own polling aborts the subtree already in progress.
				if err := we.checkCancel(); err != nil {
					s.fail(err)
					break
				}
				t := s.deques[w].pop()
				if t == nil {
					var victim int
					if t, victim = s.stealFor(w); t != nil {
						we.sched.Steals++
						if e.tr != nil {
							e.tr.Instant("steal", wtid, "victim", int64(victim))
						}
					}
				}
				if t == nil {
					if s.pending.Load() == 0 {
						break
					}
					s.idleWait()
					continue
				}
				s.queued.Add(-1)

				q := t.q
				// Task LPQs were created under another goroutine's Stats;
				// re-point at this worker's private counters before
				// touching them concurrently.
				q.stats = &wstats

				buf = nil
				var tSub time.Time
				if timed {
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
				if err != nil {
					s.fail(err)
					s.retire()
					break
				}
				if len(children) > 0 {
					we.sched.Splits++
					if e.tr != nil {
						e.tr.Complete("split", wtid, tSub, time.Now(), "children", int64(len(children)))
					}
					var slots []*emitSlot
					if tree != nil {
						slots = tree.split(t.slot, len(children))
					}
					base := s.nextSeq.Add(int64(len(children))) - int64(len(children))
					for i := len(children) - 1; i >= 0; i-- {
						ct := &wsTask{q: children[i], seq: base + int64(i)}
						if tree != nil {
							ct.slot = slots[i]
						}
						s.deques[w].push(ct)
					}
					// Children before retiring the parent, so pending can
					// only reach zero when the whole tree is drained.
					s.pending.Add(int64(len(children)))
					s.queued.Add(int64(len(children)))
					s.wake()
					s.retire()
					continue
				}
				// The task is drained: dfbi ran its subtree to completion, or
				// the split attempt met an I_R leaf (whose fused join emitted
				// its rows in place) or a subtree that pruned to nothing.
				if timed {
					end := time.Now()
					e.tr.Complete("subtree", wtid, tSub, end, "subtree", t.seq)
					subtreeHist.Observe(float64(end.Sub(tSub).Nanoseconds()))
				}
				if tree != nil {
					if err := tree.finish(t.slot, buf); err != nil {
						s.fail(err)
						s.retire()
						break
					}
				}
				we.sched.Tasks++
				s.retire()
			}
			wSpan.End()
			statsMu.Lock()
			e.stats.Add(wstats)
			e.sched.Add(we.sched)
			if wtm != nil {
				e.tm.addStages(*wtm)
			}
			statsMu.Unlock()
		}(w)
	}
	wg.Wait()
	return s.firstErr()
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

// wsTask is one unit of schedulable work: an independent LPQ subtree
// (atomic once down to one I_R leaf), its slot in the ordered-emit tree
// (nil in unordered mode), and a sequence number for tracing.
type wsTask struct {
	q    *lpq
	slot *emitSlot
	seq  int64
}

// wsDeque is one worker's task queue. The owner pushes and pops at the
// tail (LIFO); thieves take from the head (FIFO). A mutex suffices: all
// operations are O(1), the owner only locks when it actually has or
// wants work, and idle workers are kept off the locks by the scheduler's
// queued counter.
type wsDeque struct {
	mu    sync.Mutex
	head  int
	tasks []*wsTask
}

func (d *wsDeque) push(t *wsTask) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *wsDeque) pop() *wsTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if d.head >= n {
		return nil
	}
	t := d.tasks[n-1]
	d.tasks[n-1] = nil
	d.tasks = d.tasks[:n-1]
	if d.head >= n-1 {
		d.tasks = d.tasks[:0]
		d.head = 0
	}
	return t
}

func (d *wsDeque) steal() *wsTask {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.tasks) {
		return nil
	}
	t := d.tasks[d.head]
	d.tasks[d.head] = nil
	d.head++
	return t
}

// scheduler coordinates the worker deques: it tracks how many tasks are
// outstanding (pending) and how many of those sit unclaimed in deques
// (queued), parks workers that find every deque empty, and records the
// first error. The invariant that makes the idle wait safe: a task is
// retired only after any children it spawned were pushed, so
// pending > 0 with queued == 0 implies some worker is still executing —
// and that worker will either push (wake) or retire (wake on zero).
type scheduler struct {
	threshold uint64
	deques    []wsDeque
	pending   atomic.Int64
	queued    atomic.Int64
	nextSeq   atomic.Int64
	stop      atomic.Bool

	mu   sync.Mutex // guards cond
	cond *sync.Cond

	errMu sync.Mutex
	err   error
}

func newScheduler(workers int, threshold uint64) *scheduler {
	s := &scheduler{threshold: threshold, deques: make([]wsDeque, workers)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// stealFor scans the other deques (round-robin from w+1) and takes the
// head of the first non-empty one, returning the task and the victim.
func (s *scheduler) stealFor(w int) (*wsTask, int) {
	n := len(s.deques)
	for i := 1; i < n; i++ {
		v := (w + i) % n
		if t := s.deques[v].steal(); t != nil {
			return t, v
		}
	}
	return nil, -1
}

// idleWait parks the worker until work appears, everything is drained,
// or the run stops. Re-checks under the lock, so a wake between the
// caller's empty scan and the park is never lost.
func (s *scheduler) idleWait() {
	s.mu.Lock()
	for s.queued.Load() <= 0 && s.pending.Load() > 0 && !s.stop.Load() {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// wake signals parked workers after tasks were pushed.
func (s *scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// retire marks one claimed task finished; the last retire wakes everyone
// so idle workers can observe completion and exit.
func (s *scheduler) retire() {
	if s.pending.Add(-1) == 0 {
		s.wake()
	}
}

// fail records the first error, stops the run and wakes parked workers.
func (s *scheduler) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.stop.Store(true)
	s.wake()
}

func (s *scheduler) firstErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// emitSlot is one node of the ordered-emit tree: a leaf holds the
// buffered results of one subtree task; an internal node was a task that
// split, and completes when its children do. The depth-first order of
// the tree's leaves is the serial traversal order at every moment —
// the frontier is depth-first ordered, and a split replaces a leaf by
// its depth-first-ordered children in place.
type emitSlot struct {
	parent   *emitSlot
	children []*emitSlot
	next     int // first not-yet-flushed child
	done     bool
	buf      []Result
}

// emitTree releases buffered subtree results in depth-first leaf order:
// a cursor walks the tree flushing every consecutive completed leaf and
// stops at the first pending one. Workers stream results with no
// dedicated emitter goroutine, the user callback is never invoked
// concurrently, and — unlike a flat sequencer — the order survives
// dynamic splits, which simply deepen the tree under the split slot.
type emitTree struct {
	mu   sync.Mutex
	emit func(Result) error
	root *emitSlot
	err  error
}

// newEmitTree builds the tree over the n frontier subtrees and returns
// their leaf slots.
func newEmitTree(emit func(Result) error, n int) (*emitTree, []*emitSlot) {
	t := &emitTree{emit: emit, root: &emitSlot{}}
	slots := make([]*emitSlot, n)
	for i := range slots {
		slots[i] = &emitSlot{parent: t.root}
	}
	t.root.children = slots
	return t, slots
}

// split turns leaf s into an internal node with n fresh leaves. Called
// by the worker that owns s, before any finish on it; n >= 1.
func (t *emitTree) split(s *emitSlot, n int) []*emitSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make([]*emitSlot, n)
	for i := range kids {
		kids[i] = &emitSlot{parent: s}
	}
	s.children = kids
	return kids
}

// finish records a completed leaf's buffered results and flushes every
// leaf the cursor can now pass. It returns the first emit error (also on
// later calls, so every worker learns to stop).
func (t *emitTree) finish(s *emitSlot, buf []Result) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.buf = buf
	s.done = true
	t.advance()
	return t.err
}

// advance walks the depth-first cursor from the root, flushing completed
// leaves until it hits a pending one. O(depth) re-descent per call;
// splits are rare and the tree shallow, so simplicity wins over a cached
// cursor.
func (t *emitTree) advance() {
	cur := t.root
	for t.err == nil {
		if cur.children != nil {
			if cur.next < len(cur.children) {
				cur = cur.children[cur.next]
				continue
			}
			// Internal node exhausted: pop to its parent.
			if cur.parent == nil {
				return
			}
			cur = cur.parent
			cur.next++
			continue
		}
		if !cur.done {
			return // cursor blocked on a pending subtree
		}
		for _, r := range cur.buf {
			if t.err = t.emit(r); t.err != nil {
				return
			}
		}
		cur.buf = nil
		if cur.parent == nil {
			return
		}
		cur = cur.parent
		cur.next++
	}
}
