package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/obs"
)

// skewedPoints builds the scheduler's adversary: one dense cluster that
// becomes a single giant quadtree subtree, plus a thin scatter that
// becomes many trivial ones. A static frontier claimed from a cursor
// leaves one worker draining the cluster while the rest finish the
// scatter and idle; the scheduler must split the cluster task instead.
func skewedPoints(rng *rand.Rand, clustered, scattered int) []geom.Point {
	pts := make([]geom.Point, 0, clustered+scattered)
	for i := 0; i < clustered; i++ {
		pts = append(pts, geom.Point{1 + rng.Float64(), 1 + rng.Float64()})
	}
	for i := 0; i < scattered; i++ {
		pts = append(pts, geom.Point{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	return pts
}

// TestSchedulerTortureSkewedFrontier runs the self-join over the skewed
// dataset at several worker counts and demands exactly the serial
// engine's behaviour: byte-identical ordered output, set-identical
// unordered output, and full Stats parity (the split path re-expands
// subtrees with the same expandAndPrune call the serial traversal makes,
// so no counter may drift).
func TestSchedulerTortureSkewedFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	pts := skewedPoints(rng, 6000, 200)
	tree := buildMBRQT(t, pts)

	base := Options{ExcludeSelf: true}
	serial, serialStats := collectWith(t, tree, tree, base)

	for _, par := range []int{2, 4, 8} {
		opts := base
		opts.Parallelism = par
		opts.OrderedEmit = true
		got, stats := collectWith(t, tree, tree, opts)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("par=%d ordered: results differ from serial", par)
		}
		if ns, np := normalizeCacheCounters(serialStats), normalizeCacheCounters(stats); ns != np {
			t.Fatalf("par=%d ordered: stats differ:\nserial:   %+v\nparallel: %+v", par, ns, np)
		}

		opts.OrderedEmit = false
		got, stats = collectWith(t, tree, tree, opts)
		sortByObject(got)
		sorted := append([]Result(nil), serial...)
		sortByObject(sorted)
		if !reflect.DeepEqual(got, sorted) {
			t.Fatalf("par=%d unordered: result set differs from serial", par)
		}
		if ns, np := normalizeCacheCounters(serialStats), normalizeCacheCounters(stats); ns != np {
			t.Fatalf("par=%d unordered: stats differ:\nserial:   %+v\nparallel: %+v", par, ns, np)
		}
	}
}

// TestSchedulerSplitsStragglers pins the dynamic-split behaviour itself:
// on the skewed dataset the cluster subtree exceeds the split threshold,
// so a parallel run must report splits (and at least as many tasks as
// the frontier it started from) through QueryReport.Sched.
func TestSchedulerSplitsStragglers(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	pts := skewedPoints(rng, 6000, 200)
	tree := buildMBRQT(t, pts)

	opts := Options{ExcludeSelf: true, Parallelism: 4, OrderedEmit: true}
	rep, err := RunReportContext(context.Background(), tree, tree, opts, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sched.Splits == 0 {
		t.Fatalf("skewed frontier produced no splits: %+v", rep.Sched)
	}
	if rep.Sched.Tasks == 0 {
		t.Fatalf("no tasks recorded: %+v", rep.Sched)
	}
	if rep.Sched.Steals != 0 {
		t.Fatalf("steals recorded from a single task stack: %+v", rep.Sched)
	}
	if rep.Sched.KernelPairs == 0 {
		t.Fatalf("leaf join reported no kernel pairs: %+v", rep.Sched)
	}

	// A serial run of the same query reports no scheduling activity.
	rep, err = RunReportContext(context.Background(), tree, tree, Options{ExcludeSelf: true}, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sched.Tasks != 0 || rep.Sched.Steals != 0 || rep.Sched.Splits != 0 {
		t.Fatalf("serial run reported scheduler activity: %+v", rep.Sched)
	}
}

// TestEmitTreeOrderUnderSplit drives the emit tree directly through a
// split-while-pending scenario: subtree 1 splits twice and its pieces
// finish in scrambled order, while subtree 0 finishes last — the flush
// must still be the depth-first leaf order. It ends on the partial flush:
// the cursor reaches a leaf that is still running and already holds rows,
// which its worker streams before the rest.
func TestEmitTreeOrderUnderSplit(t *testing.T) {
	var got []uint64
	tree, slots := newEmitTree(func(r Result) error {
		got = append(got, r.ID)
		return nil
	}, 4)

	res := func(ids ...uint64) []Result {
		var rows []Result
		for _, id := range ids {
			rows = append(rows, Result{ID: id})
		}
		return rows
	}
	finish := func(s *emitSlot, wantFlushed bool, ids ...uint64) {
		t.Helper()
		flushed, err := tree.finish(s, res(ids...))
		if err != nil {
			t.Fatal(err)
		}
		if flushed != wantFlushed {
			t.Fatalf("finish(%v) flushed = %v, want %v", ids, flushed, wantFlushed)
		}
	}

	// Split slot 1 into two, then its second child again into two.
	kids := tree.split(slots[1], make([]*lpq, 2))
	grand := tree.split(kids[1], make([]*lpq, 2))

	// Finish in adversarial order: deepest leaves first, slot 0 last.
	finish(grand[1], false, 13)
	finish(grand[0], false, 12)
	finish(slots[2], false, 20)
	finish(kids[0], false, 11)
	if len(got) != 0 {
		t.Fatalf("flushed %v before the first subtree finished", got)
	}
	if p := tree.parked.Load(); p != 4 {
		t.Fatalf("parked = %d rows, want 4", p)
	}
	if tree.cursor.Load() != slots[0] {
		t.Fatal("cursor is not on the first subtree")
	}
	finish(slots[0], true, 0)
	if want := []uint64{0, 11, 12, 13, 20}; !reflect.DeepEqual(got, want) {
		t.Fatalf("emit order = %v, want %v", got, want)
	}

	// Slot 3 is still running with rows 30, 31 in hand when the cursor
	// arrives: it streams them, then a later leaf's, then finishes.
	if tree.cursor.Load() != slots[3] || tree.parked.Load() != 0 {
		t.Fatalf("cursor not on the running subtree, or %d rows still parked", tree.parked.Load())
	}
	for _, rows := range [][]Result{res(30, 31), res(32)} {
		if err := tree.stream(rows); err != nil {
			t.Fatal(err)
		}
	}
	finish(slots[3], true, 33)
	if want := []uint64{0, 11, 12, 13, 20, 30, 31, 32, 33}; !reflect.DeepEqual(got, want) {
		t.Fatalf("emit order = %v, want %v", got, want)
	}
	if tree.cursor.Load() != nil {
		t.Fatal("cursor did not leave the drained tree")
	}
}

// slotPath is a slot's position as the child indexes from the root; paths
// compare in depth-first order. Independent of the scheduler's own
// comparison, which walks parents in step.
func slotPath(s *emitSlot) []int {
	var p []int
	for ; s.parent != nil; s = s.parent {
		p = append(p, s.idx)
	}
	slices.Reverse(p)
	return p
}

// seedEngine builds the engine and root LPQ RunContext would hand to
// runParallel, so a test can put its hands on the scheduler in between.
func seedEngine(t *testing.T, ir, is index.Tree, opts Options, stats *Stats, emit func(Result) error) (*engine, *lpq) {
	t.Helper()
	opts = opts.withDefaults()
	rootR, err := ir.Root()
	if err != nil {
		t.Fatal(err)
	}
	rootS, err := is.Root()
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{ir: ir, is: is, opts: opts, emit: emit, stats: stats,
		ctx: context.Background(), tid: obs.TidMain}
	return e, e.seedRoot(&rootR, &rootS)
}

// TestSchedulerClaimOrder runs the skewed self-join with a hook on every
// claim: the claimed task must precede, in depth-first order, every task
// still unclaimed — workers take the leftmost unclaimed leaf of the task
// tree, splits included — and the run must still produce the serial rows
// and the serial Stats.
func TestSchedulerClaimOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	pts := skewedPoints(rng, 6000, 200)
	tree := buildMBRQT(t, pts)
	base := Options{ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled}
	serial, serialStats := collectWith(t, tree, tree, base)

	for _, workers := range []int{2, 4, 8} {
		opts := base
		opts.Parallelism = workers
		opts.OrderedEmit = true
		var stats Stats
		var got []Result
		e, root := seedEngine(t, tree, tree, opts, &stats, func(r Result) error {
			got = append(got, r)
			return nil
		})
		s, err := e.newScheduler(root, workers)
		if err != nil {
			t.Fatal(err)
		}
		claims, splits := 0, 0
		s.onClaim = func(claimed *emitSlot, unclaimed []*emitSlot) {
			claims++
			if claimed.depth > 1 {
				splits++
			}
			for _, u := range unclaimed {
				if slices.Compare(slotPath(claimed), slotPath(u)) >= 0 {
					t.Errorf("workers=%d: claim %d took %v with %v unclaimed", workers, claims, slotPath(claimed), slotPath(u))
				}
			}
		}
		if err := s.run(workers); err != nil {
			t.Fatal(err)
		}
		if splits == 0 {
			t.Fatalf("workers=%d: no claim below the frontier in %d, the splits went untested", workers, claims)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: rows differ from serial", workers)
		}
		if stats != serialStats {
			t.Fatalf("workers=%d: stats differ:\nserial:   %+v\nparallel: %+v", workers, serialStats, stats)
		}
	}
}

// TestSchedulerInterleavedSplits is the case a plain push-on-top stack
// gets wrong: two adjacent tasks are claimed, the left one splits and one
// of its children is taken, then the right one splits. Its children must
// go under the left task's remaining child, not on top of it — or the
// emit cursor's leaf could sit buried while every worker waits on the
// window.
func TestSchedulerInterleavedSplits(t *testing.T) {
	s := &scheduler{}
	s.cond.L = &s.mu
	var slots []*emitSlot
	s.tree, slots = newEmitTree(nil, 3)
	s.stack = []*emitSlot{slots[2], slots[1], slots[0]}

	claim := func(want *emitSlot) {
		t.Helper()
		if got := s.claim(); got != want {
			t.Fatalf("claimed %v, want %v", slotPath(got), slotPath(want))
		}
	}
	claim(slots[0])
	claim(slots[1])
	left := s.tree.split(slots[0], make([]*lpq, 2))
	s.retire(left)
	claim(left[0])
	right := s.tree.split(slots[1], make([]*lpq, 2))
	s.retire(right)
	for _, want := range []*emitSlot{left[1], right[0], right[1], slots[2]} {
		claim(want)
		s.retire(nil)
	}
	s.retire(nil) // left[0]
	if got := s.claim(); got != nil {
		t.Fatalf("claimed %v from a drained tree", slotPath(got))
	}
}

// leafRows wraps a query index and counts the rows of every leaf the join
// expands — an upper bound, at any moment, on the rows produced so far.
type leafRows struct {
	index.Tree
	rows atomic.Int64
}

func (c *leafRows) Expand(e *index.Entry) ([]index.Entry, error) {
	kids, err := c.Tree.Expand(e)
	if err == nil && len(kids) > 0 && kids[0].Kind == index.ObjectEntry {
		c.rows.Add(int64(len(kids)))
	}
	return kids, err
}

// settle polls f until it has returned the same value for 200 ms and
// returns that value, calling check on every sample.
func settle(t *testing.T, f func() int64, check func(int64)) int64 {
	t.Helper()
	last, since := f(), time.Now()
	for deadline := since.Add(30 * time.Second); time.Since(since) < 200*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatal("value never settled")
		}
		time.Sleep(5 * time.Millisecond)
		v := f()
		check(v)
		if v != last {
			last, since = v, time.Now()
		}
	}
	return last
}

// TestParallelBoundedParking blocks the consumer inside its first
// callback and lets the workers run until they stall: the rows produced
// and not yet emitted must stay within the window — the claim gate plus
// the one task each worker may still finish — where the answer is several
// times that. Released, the join must complete byte-identical to serial.
func TestParallelBoundedParking(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := uniformPoints(rng, 20000, 2, 1000)
	tree := buildMBRQT(t, pts)
	base := Options{K: 2, ExcludeSelf: true}
	serial, serialStats := collectWith(t, tree, tree, base)

	for _, workers := range []int{2, 4} {
		threshold := max(len(pts)/(workers*splitDivisor), minSplitCount)
		bound := int64(workers * (parkedTasksPerWorker + 1) * threshold)
		if int64(len(pts)) < 2*bound {
			t.Fatalf("workers=%d: a bound of %d rows says nothing about %d", workers, bound, len(pts))
		}
		ir := &leafRows{Tree: tree}
		var emitted atomic.Int64
		first, release := make(chan struct{}), make(chan struct{})
		var got []Result
		var stats Stats
		done := make(chan error, 1)
		go func() {
			opts := base
			opts.Parallelism = workers
			opts.OrderedEmit = true
			var err error
			stats, err = RunContext(context.Background(), ir, tree, opts, func(r Result) error {
				got = append(got, r)
				if emitted.Add(1) == 1 {
					close(first)
					<-release
				}
				return nil
			})
			done <- err
		}()
		<-first
		ahead := settle(t, func() int64 { return ir.rows.Load() - emitted.Load() }, func(ahead int64) {
			if ahead > bound {
				t.Fatalf("workers=%d: %d rows produced ahead of a blocked consumer, the bound is %d", workers, ahead, bound)
			}
		})
		if ahead <= int64(parkedTasksPerWorker*threshold) {
			t.Fatalf("workers=%d: only %d rows ahead of the blocked consumer: nobody ran ahead, the window went untested", workers, ahead)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: rows differ from serial", workers)
		}
		if ns, np := normalizeCacheCounters(serialStats), normalizeCacheCounters(stats); ns != np {
			t.Fatalf("workers=%d: stats differ:\nserial:   %+v\nparallel: %+v", workers, ns, np)
		}
	}
}
