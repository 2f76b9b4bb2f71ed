package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"allnn/internal/geom"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// buildSlowTree builds an MBRQT whose store delays every read, so a full
// ANN run over it takes far longer than the cancellation deadlines below.
// The tiny pool plus NodeCacheDisabled in the options keep the traversal
// hitting the slow store instead of warm frames.
func buildSlowTree(t testing.TB, pts []geom.Point, readLatency time.Duration) (*mbrqt.Tree, *storage.BufferPool) {
	t.Helper()
	fs := storage.NewFaultStore(storage.NewMemStore(), storage.FaultConfig{})
	pool := storage.NewBufferPool(fs, 4)
	tree, err := mbrqt.BulkLoad(pool, pts, nil, mbrqt.Config{BucketCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(storage.FaultConfig{ReadLatency: readLatency})
	return tree, pool
}

// TestCancelStopsRun cancels a slow query mid-flight — serially and with
// four workers — and checks that it returns promptly with
// context.Canceled and no pinned frames left behind.
func TestCancelStopsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := clusteredPoints(rng, 5000, 2, 100)
	tree, pool := buildSlowTree(t, pts, 2*time.Millisecond)

	for _, par := range []int{1, 4} {
		name := "serial"
		if par > 1 {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			timer := time.AfterFunc(20*time.Millisecond, cancel)
			defer timer.Stop()

			start := time.Now()
			_, _, err := CollectContext(ctx, tree, tree, Options{
				K:              1,
				ExcludeSelf:    true,
				Parallelism:    par,
				NodeCacheBytes: NodeCacheDisabled,
			})
			elapsed := time.Since(start)

			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The bound is generous — what matters is that the run did not
			// grind through the multi-second full traversal.
			if elapsed > 1500*time.Millisecond {
				t.Fatalf("run took %v after a 20ms cancellation", elapsed)
			}
			storage.RequireNoPinnedFrames(t, pool)
		})
	}
}

// TestCancelDeadline runs the same slow query under context.WithTimeout
// and expects DeadlineExceeded — the annquery -timeout path.
func TestCancelDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := clusteredPoints(rng, 5000, 2, 100)
	tree, pool := buildSlowTree(t, pts, 2*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := CollectContext(ctx, tree, tree, Options{
		K:              1,
		ExcludeSelf:    true,
		NodeCacheBytes: NodeCacheDisabled,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("run took %v after a 25ms deadline", elapsed)
	}
	storage.RequireNoPinnedFrames(t, pool)
}

// TestCancelBeforeRun passes an already-cancelled context: the run must
// return immediately without touching the index.
func TestCancelBeforeRun(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := clusteredPoints(rng, 100, 2, 100)
	tree, pool := buildSlowTree(t, pts, 0)
	before := pool.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, stats, err := CollectContext(ctx, tree, tree, Options{K: 1, ExcludeSelf: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 0 {
		t.Fatalf("pre-cancelled run produced %d results", len(results))
	}
	if stats.NodesExpandedR != 0 || stats.NodesExpandedS != 0 {
		t.Fatalf("pre-cancelled run expanded %d/%d nodes", stats.NodesExpandedR, stats.NodesExpandedS)
	}
	if after := pool.Stats(); after.Reads != before.Reads {
		t.Fatalf("pre-cancelled run performed %d reads", after.Reads-before.Reads)
	}
	storage.RequireNoPinnedFrames(t, pool)
}

// TestCancelDistanceJoin cancels a slow distance self-join mid-flight
// and checks that it stops promptly, surfaces the context error, and
// releases every pinned frame.
func TestCancelDistanceJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := clusteredPoints(rng, 5000, 2, 100)
	tree, pool := buildSlowTree(t, pts, 2*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	emitted := 0
	_, err := DistanceJoinContext(ctx, tree, tree, 5, true, func(Pair) error {
		emitted++
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("join took %v after a 25ms deadline", elapsed)
	}
	storage.RequireNoPinnedFrames(t, pool)

	// Pre-cancelled context: immediate error, no emission.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	emitted = 0
	if _, err := DistanceJoinContext(pre, tree, tree, 5, true, func(Pair) error {
		emitted++
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if emitted != 0 {
		t.Fatalf("pre-cancelled join emitted %d pairs", emitted)
	}
}

// TestCancelClosestPairs cancels a slow k-closest-pairs traversal and
// checks for a prompt, pair-free return with the context error.
func TestCancelClosestPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := clusteredPoints(rng, 5000, 2, 100)
	tree, pool := buildSlowTree(t, pts, 2*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	pairs, _, err := KClosestPairsContext(ctx, tree, tree, 8, true)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(pairs) != 0 {
		t.Fatalf("cancelled traversal returned %d pairs, want none", len(pairs))
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("traversal took %v after a 25ms deadline", elapsed)
	}
	storage.RequireNoPinnedFrames(t, pool)
}

// TestCancelReportCoversPartialWork checks RunReportContext under
// cancellation: the error surfaces and the report reflects only the work
// done before the abort (no negative or absurd counters, pins released).
func TestCancelReportCoversPartialWork(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pts := clusteredPoints(rng, 5000, 2, 100)
	tree, pool := buildSlowTree(t, pts, 2*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	rep, err := RunReportContext(ctx, tree, tree, Options{
		K:              1,
		ExcludeSelf:    true,
		NodeCacheBytes: NodeCacheDisabled,
	}, func(Result) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if rep.Timings.Wall <= 0 {
		t.Fatalf("report wall time %v, want > 0", rep.Timings.Wall)
	}
	storage.RequireNoPinnedFrames(t, pool)
}

// TestCancelParkedWorker cancels an ordered parallel join whose consumer
// is stuck in its first callback, so that the other workers have run into
// the parked-rows window and wait there: the join must return the
// context's error with no goroutine left behind and no frame pinned.
func TestCancelParkedWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := uniformPoints(rng, 20000, 2, 1000)
	tree, pool := buildSlowTree(t, pts, 0)
	ir := &leafRows{Tree: tree}
	goroutines := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted atomic.Int64
	first := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, ir, tree, Options{
			ExcludeSelf:    true,
			Parallelism:    4,
			OrderedEmit:    true,
			NodeCacheBytes: NodeCacheDisabled,
		}, func(Result) error {
			if emitted.Add(1) == 1 {
				close(first)
				<-ctx.Done()
			}
			return nil
		})
		done <- err
	}()
	<-first
	ahead := settle(t, func() int64 { return ir.rows.Load() - emitted.Load() }, func(int64) {})
	if produced := ir.rows.Load(); ahead <= 0 || produced >= int64(len(pts)) {
		t.Fatalf("%d of %d rows produced, %d ahead of the consumer: no worker is waiting on the window", produced, len(pts), ahead)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join did not return after the cancellation")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the join", runtime.NumGoroutine(), goroutines)
		}
	}
	storage.RequireNoPinnedFrames(t, pool)
}
