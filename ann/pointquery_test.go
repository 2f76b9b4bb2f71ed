package ann

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"allnn/internal/storage"
)

// bruteKNNIDs returns the ids of the k points of live nearest to q,
// nearest first.
func bruteKNNIDs(live map[uint64]Point, q Point, k int) []uint64 {
	ids := make([]uint64, 0, k+1)
	dists := make([]float64, 0, k+1)
	for id, p := range live {
		var sum float64
		for d := range p {
			diff := q[d] - p[d]
			sum += diff * diff
		}
		if len(ids) == k && sum >= dists[k-1] {
			continue
		}
		at := sort.SearchFloat64s(dists, sum)
		ids, dists = slices.Insert(ids, at, id), slices.Insert(dists, at, sum)
		if len(ids) > k {
			ids, dists = ids[:k], dists[:k]
		}
	}
	return ids
}

// TestKNNReadersBesideWriter runs three kNN readers against a writer that
// commits insert and delete batches aimed at the readers' own query
// points, over a page file behind a 64-frame pool (about half
// the tree), on four Ps. Point queries read nodes in their pinned pool
// frames; the copy-on-write snapshots must keep those bytes stable under
// them, so every answer has to be the exact answer of one published
// batch boundary, and no frame may stay pinned afterwards.
func TestKNNReadersBesideWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const (
		batches   = 24
		batchSize = 8
		k         = 10
	)
	rng := rand.New(rand.NewSource(91))
	base := basePoints(90, 30_000, 2)
	queries := make([]Point, 6)
	for j := range queries {
		queries[j] = base[100*j+5]
	}
	live := make(map[uint64]Point, len(base))
	for i, p := range base {
		live[uint64(i)] = p
	}

	// The write history, and the exact answer to every query at every
	// batch boundary. Even batches insert points right next to the
	// query points, odd ones delete their current nearest neighbors.
	type batch struct {
		insert bool
		ids    []uint64
		pts    []Point
	}
	history := make([]batch, batches)
	valid := make([]map[string]bool, len(queries))
	record := func() {
		for j, q := range queries {
			if valid[j] == nil {
				valid[j] = map[string]bool{}
			}
			valid[j][fmt.Sprint(bruteKNNIDs(live, q, k))] = true
		}
	}
	record()
	for b := range history {
		h := batch{insert: b%2 == 0}
		for i := 0; i < batchSize; i++ {
			q := queries[(b+i)%len(queries)]
			if h.insert {
				id := uint64(1_000_000 + b*batchSize + i)
				p := Point{q[0] + rng.Float64()*0.2, q[1] + rng.Float64()*0.2}
				h.ids, h.pts = append(h.ids, id), append(h.pts, p)
				live[id] = p
			} else {
				id := bruteKNNIDs(live, q, 1)[0]
				h.ids, h.pts = append(h.ids, id), append(h.pts, live[id])
				delete(live, id)
			}
		}
		history[b] = h
		record()
	}

	ix, err := BuildIndex(base, IndexConfig{
		PageFile:        filepath.Join(t.TempDir(), "knn.pages"),
		BufferPoolBytes: 64 * storage.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages := ix.store.NumPages(); pages < 100 {
		t.Fatalf("index has %d pages, want well over the pool's 64 frames", pages)
	}

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	errCh := make(chan error, 4)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for b, h := range history {
			var err error
			if h.insert {
				err = ix.InsertBatch(h.ids, h.pts)
			} else {
				var n int
				if n, err = ix.DeleteBatch(h.ids, h.pts); err == nil && n != len(h.ids) {
					err = fmt.Errorf("deleted %d of %d", n, len(h.ids))
				}
			}
			if err == nil && b == batches/2 {
				err = ix.Flush()
			}
			if err != nil {
				report(fmt.Errorf("writer batch %d: %w", b, err))
				return
			}
		}
	}()
	answers := make([]int, 3)
	for r := range answers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; ; n++ {
				select {
				case <-writerDone:
					return
				default:
				}
				j := n % len(queries)
				nbs, err := ix.NearestNeighbors(queries[j], k)
				if err != nil {
					report(fmt.Errorf("reader %d: %w", r, err))
					return
				}
				ids := make([]uint64, len(nbs))
				for i, nb := range nbs {
					ids[i] = nb.ID
				}
				if !valid[j][fmt.Sprint(ids)] {
					report(fmt.Errorf("reader %d, query %d: answer %v matches no published snapshot", r, j, ids))
					return
				}
				answers[r]++
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("%v", err)
	default:
	}
	for r, n := range answers {
		if n == 0 {
			t.Errorf("reader %d completed no query beside the writer", r)
		}
	}
	// Quiesced: the answers are those of the final state.
	for j, q := range queries {
		nbs, err := ix.NearestNeighbors(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNNIDs(live, q, k)
		for i, nb := range nbs {
			if nb.ID != want[i] {
				t.Fatalf("query %d after the last batch: neighbor %d is %d, want %d", j, i, nb.ID, want[i])
			}
		}
	}
	storage.RequireNoPinnedFrames(t, ix.tree.Pool())
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// cancelOnErr is a context that cancels itself the after-th time its Err
// is consulted, so a test decides between which probes of a batch the
// caller gives up.
type cancelOnErr struct {
	context.Context
	cancel       context.CancelFunc
	calls, after int
}

func (c *cancelOnErr) Err() error {
	if c.calls++; c.calls == c.after {
		c.cancel()
	}
	return c.Context.Err()
}

// TestBatchKNN: a batch equals its probes run one by one; and a context
// cancelled between probe 1 and probe 2 of 64 ends the batch there with
// context.Canceled, no partial result, no pinned frame and the batch's
// snapshot released.
func TestBatchKNN(t *testing.T) {
	pts := randomPoints(5, 20_000, 2)
	ix, err := BuildIndex(pts, IndexConfig{
		PageFile:        filepath.Join(t.TempDir(), "batch.pages"),
		BufferPoolBytes: 64 * storage.PageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := pts[100:164]
	batch, err := ix.BatchNearestNeighbors(context.Background(), qs, 10)
	if err != nil || len(batch) != len(qs) {
		t.Fatalf("%d answers, %v", len(batch), err)
	}
	for i, q := range qs {
		single, err := ix.NearestNeighbors(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(batch[i]) != fmt.Sprint(single) {
			t.Fatalf("probe %d: batch %v, single %v", i, batch[i], single)
		}
	}

	// Err is consulted once on entry, then before every probe but the
	// first: the second consultation follows probe 1.
	base, cancel := context.WithCancel(context.Background())
	ctx := &cancelOnErr{Context: base, cancel: cancel, after: 2}
	res, err := ix.BatchNearestNeighbors(ctx, qs, 10)
	if err != context.Canceled || res != nil {
		t.Fatalf("cancelled batch returned %d answers, %v", len(res), err)
	}
	if ctx.calls != 2 {
		t.Fatalf("the context was consulted %d times, want 2: the batch ran on after it was cancelled", ctx.calls)
	}
	storage.RequireNoPinnedFrames(t, ix.tree.Pool())
	if pins := ix.Stats().SnapshotPins; pins != 0 {
		t.Fatalf("%d snapshot pins left", pins)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmKNNAllocations pins a warm k = 10 probe to what it hands back:
// this package's neighbor slice, the index layer's result slice, the
// coordinate slab behind both, and the root entry's bounds. The frontier
// and the k-best are pooled, a node's records are scanned where they lie,
// and pinning a page allocates nothing.
func TestWarmKNNAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	pts := randomPoints(3, 20_000, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if _, err := ix.NearestNeighbors(pts[i*37%len(pts)], 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("a warm kNN k=10 allocates %.0f times, want <= 4", allocs)
	}
	ix.Close()
}

// TestWarmBatchKNNAllocations: a batch allocates what a single probe does
// plus the two outer slices of its answers, and nothing per probe — 64
// probes and 512 allocate alike.
func TestWarmBatchKNNAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	pts := randomPoints(3, 20_000, 2)
	ctx := context.Background()
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 512} {
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			i += 37
			if _, err := ix.BatchNearestNeighbors(ctx, pts[i:i+n], 10); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 6 {
			t.Errorf("a warm batch of %d kNN k=10 allocates %.0f times, want <= 6", n, allocs)
		}
	}
	ix.Close()
}
