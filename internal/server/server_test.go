package server

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

func randomPoints(seed int64, n, dim int) []ann.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]ann.Point, n)
	for i := range pts {
		p := make(ann.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

// startServer runs a server over a loopback listener and returns a
// connected client. Cleanup drains the server and closes the catalog.
func startServer(t *testing.T, cfg Config) (*Server, *client.Client, string) {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) // double-shutdown in tests that drain themselves is reported, not fatal
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		srv.Catalog().CloseAll()
	})
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl, addr
}

func buildIndex(t *testing.T, pts []ann.Point, kind ann.IndexKind) *ann.Index {
	t.Helper()
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// collectJoin drains a join stream into a slice.
func collectJoin(t *testing.T, st *client.JoinStream) []ann.Result {
	t.Helper()
	var out []ann.Result
	for st.Next() {
		out = append(out, st.Result())
	}
	if err := st.Err(); err != nil {
		t.Fatalf("join stream: %v", err)
	}
	if st.Count() != uint64(len(out)) {
		t.Fatalf("stream end reported %d results, received %d", st.Count(), len(out))
	}
	return out
}

// TestServedParity pins the acceptance criterion: served results are
// byte-identical to direct ann library calls for kNN, batch kNN, range,
// ANN and AkNN (k ∈ {1, 4}), within-distance, and closest-pairs.
func TestServedParity(t *testing.T) {
	rPts := randomPoints(101, 400, 2)
	sPts := randomPoints(102, 500, 2)
	rix := buildIndex(t, rPts, ann.MBRQT)
	six := buildIndex(t, sPts, ann.RStar)

	reg := obs.NewRegistry()
	srv, cl, _ := startServer(t, Config{Metrics: reg, Tracer: obs.NewTracer()})
	if err := srv.Catalog().Add("r", rix); err != nil {
		t.Fatal(err)
	}
	if err := srv.Catalog().Add("s", six); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, k := range []int{1, 4} {
		// Point kNN.
		for _, q := range []ann.Point{{5, 5}, {50, 50}, {99, 1}} {
			want, err := six.NearestNeighbors(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.KNN(ctx, "s", q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d: served KNN(%v) = %+v, want %+v", k, q, got, want)
			}
		}

		// Batch kNN.
		batch := rPts[:25]
		gotBatch, err := cl.BatchKNN(ctx, "s", batch, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotBatch) != len(batch) {
			t.Fatalf("batch returned %d results, want %d", len(gotBatch), len(batch))
		}
		for i, q := range batch {
			want, err := six.NearestNeighbors(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if gotBatch[i].ID != uint64(i) || !reflect.DeepEqual(gotBatch[i].Neighbors, want) {
				t.Fatalf("k=%d: batch result %d diverges from direct call", k, i)
			}
		}

		// ANN / AkNN join.
		want, err := ann.JoinAll(context.Background(), rix, six, k, false, ann.QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Join(ctx, "r", "s", k)
		if err != nil {
			t.Fatal(err)
		}
		got := collectJoin(t, st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: served join diverges from direct JoinAll", k)
		}

		// Self-join variant.
		wantSelf, err := ann.JoinAll(context.Background(), rix, rix, k, true, ann.QueryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		st, err = cl.SelfJoin(ctx, "r", k)
		if err != nil {
			t.Fatal(err)
		}
		gotSelf := collectJoin(t, st)
		if !reflect.DeepEqual(gotSelf, wantSelf) {
			t.Fatalf("k=%d: served self-join diverges from direct JoinAll", k)
		}
	}

	// Range search (streamed).
	lo, hi := ann.Point{20, 20}, ann.Point{60, 60}
	wantIDs, wantPts, err := six.RangeSearchWithPoints(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotPts, err := cl.Range(ctx, "s", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(gotPts, wantPts) {
		t.Fatalf("served range = %v %v, want %v %v", gotIDs, gotPts, wantIDs, wantPts)
	}

	// Within-distance join (streamed).
	type pairKey struct {
		r, s uint64
		d    float64
	}
	var wantPairs []pairKey
	err = ann.WithinDistanceContext(context.Background(), rix, six, 3.0, false, func(r, s uint64, d float64) error {
		wantPairs = append(wantPairs, pairKey{r, s, d})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotPairs []pairKey
	total, err := cl.WithinDistance(ctx, "r", "s", 3.0, false, func(r, s uint64, d float64) error {
		gotPairs = append(gotPairs, pairKey{r, s, d})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != uint64(len(wantPairs)) || !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Fatalf("served within-distance: %d pairs, want %d", len(gotPairs), len(wantPairs))
	}

	// Closest pairs.
	wantCP, err := ann.ClosestPairsContext(context.Background(), rix, six, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	gotCP, err := cl.ClosestPairs(ctx, "r", "s", 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCP, wantCP) {
		t.Fatalf("served closest-pairs = %+v, want %+v", gotCP, wantCP)
	}

	// Catalog introspection.
	infos, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "r" || infos[1].Name != "s" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[1].Kind != ann.RStar || infos[1].Points != 500 || infos[1].Dim != 2 {
		t.Fatalf("List entry for s = %+v", infos[1])
	}
	stats, err := cl.Stats(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 500 || stats.PoolHits == 0 {
		t.Fatalf("served stats = %+v", stats)
	}

	// The server published its metric families.
	snap := reg.Snapshot()
	if snap.Counters["server.requests"] == 0 || snap.Counters["server.bytes_out"] == 0 {
		t.Errorf("server metrics missing from registry: %+v", snap.Counters)
	}
	if snap.Counters["engine.results"] == 0 {
		t.Errorf("join engine counters not folded into registry")
	}

	srv.Catalog().RequireNoPinnedFrames(t)
}

// TestServedStatsParity: a served OpStats is the direct ix.Stats() field
// for field. The index is file-backed and recovered from its log, has
// taken writes and a checkpoint since, and has a node cache warmed by a
// join, so every WAL and cache counter is non-zero and a field the wire
// dropped would show.
func TestServedStatsParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.pages")
	pts := randomPoints(112, 4000, 2)
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{PageFile: path})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(ix *ann.Index, id uint64) {
		t.Helper()
		if err := ix.InsertBatch([]uint64{id, id + 1}, []ann.Point{{float64(id%50) + 25, 50}, {50, float64(id%50) + 25}}); err != nil {
			t.Fatal(err)
		}
	}
	batch(ix, 1000)
	batch(ix, 1002)
	// Abandon it without Flush or Close: reopening replays the log.
	ix, err = ann.OpenIndex(path, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batch(ix, 1004)
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	batch(ix, 1006)

	srv, cl, _ := startServer(t, Config{})
	if err := srv.Catalog().Add("s", ix); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st, err := cl.SelfJoin(ctx, "s", 2)
	if err != nil {
		t.Fatal(err)
	}
	collectJoin(t, st)
	// A serial join under a cache too small for the tree evicts (it evicts
	// nothing above ≈ 600 KB), and the pages writes after it copy and
	// reclaim take their cached nodes along (none are cached below
	// ≈ 190 KB).
	if _, err := ann.JoinAll(context.Background(), ix, ix, 2, true, ann.QueryConfig{Parallelism: 1, NodeCacheBytes: 384 << 10}); err != nil {
		t.Fatal(err)
	}
	batch(ix, 1008)
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	batch(ix, 1010)

	served, err := cl.Stats(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	direct := ix.Stats()
	if !reflect.DeepEqual(served, direct) {
		t.Fatalf("served stats diverge from the direct call:\nserved %+v\ndirect %+v", served, direct)
	}
	v := reflect.ValueOf(direct)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if (strings.HasPrefix(name, "WAL") || strings.HasPrefix(name, "Cache")) && v.Field(i).IsZero() {
			t.Errorf("%s is zero, so the parity above does not cover it", name)
		}
	}
}

// TestErrorTaxonomy checks the typed error surface: NOT_FOUND for
// unknown names, BAD_REQUEST for invalid parameters.
func TestErrorTaxonomy(t *testing.T) {
	pts := randomPoints(103, 50, 2)
	srv, cl, _ := startServer(t, Config{})
	if err := srv.Catalog().Add("pts", buildIndex(t, pts, ann.MBRQT)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := cl.KNN(ctx, "nope", ann.Point{1, 2}, 1); !client.IsNotFound(err) {
		t.Errorf("unknown index: got %v, want NOT_FOUND", err)
	}
	if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2, 3}, 1); !client.IsBadRequest(err) {
		t.Errorf("dim mismatch: got %v, want BAD_REQUEST", err)
	}
	if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 0); !client.IsBadRequest(err) {
		t.Errorf("k=0: got %v, want BAD_REQUEST", err)
	}
	if _, err := cl.Open(ctx, "ghost", filepath.Join(t.TempDir(), "missing.pages")); !client.IsNotFound(err) {
		t.Errorf("missing file: got %v, want NOT_FOUND", err)
	}
	if err := cl.CloseIndex(ctx, "ghost"); !client.IsNotFound(err) {
		t.Errorf("closing unknown index: got %v, want NOT_FOUND", err)
	}
	// The connection survives every rejected request.
	if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 1); err != nil {
		t.Fatalf("connection unusable after errors: %v", err)
	}
}

// TestAdmissionControl pins the SERVER_BUSY and queued
// DEADLINE_EXCEEDED behaviour at exact bounds.
func TestAdmissionControl(t *testing.T) {
	pts := randomPoints(104, 50, 2)
	srv, cl, _ := startServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	if err := srv.Catalog().Add("pts", buildIndex(t, pts, ann.MBRQT)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Occupy the only execution slot and the only queue seat.
	if err := srv.admit.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		qctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
		defer cancel()
		queued <- srv.admit.acquire(qctx)
	}()
	// Wait for the queued acquire to take its seat.
	for srv.admit.queueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}

	// The next query must bounce immediately with SERVER_BUSY.
	if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 1); !client.IsBusy(err) {
		t.Errorf("over-capacity query: got %v, want SERVER_BUSY", err)
	}
	// Catalog ops bypass admission and still work at full capacity.
	if _, err := cl.List(ctx); err != nil {
		t.Errorf("List under full admission: %v", err)
	}
	// The queued waiter times out with a deadline error.
	if err := <-queued; !wire.IsCode(err, wire.CodeDeadlineExceeded) {
		t.Errorf("queued waiter: got %v, want DEADLINE_EXCEEDED", err)
	}
	srv.admit.release()

	// With the slot free the same query succeeds.
	if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 1); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

// TestRequestDeadline checks that a client deadline aborts a served
// join engine-side and surfaces as DEADLINE_EXCEEDED.
func TestRequestDeadline(t *testing.T) {
	pts := randomPoints(105, 100_000, 2)
	srv, cl, _ := startServer(t, Config{})
	if err := srv.Catalog().Add("pts", buildIndex(t, pts, ann.MBRQT)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	st, err := cl.SelfJoin(ctx, "pts", 4)
	if err != nil {
		t.Fatal(err)
	}
	for st.Next() {
	}
	if err := st.Err(); !client.IsDeadlineExceeded(err) {
		t.Fatalf("expired join: got %v, want DEADLINE_EXCEEDED", err)
	}
	srv.Catalog().RequireNoPinnedFrames(t)
}

// TestBatchKNNLimits: a batch whose worst-case reply cannot fit one frame
// is refused as BAD_REQUEST, naming the limit, before any probe runs; and
// a batch's deadline is honored — one that has already passed when the
// request arrives, and one that passes while the probes run.
func TestBatchKNNLimits(t *testing.T) {
	pts := randomPoints(106, 50_000, 2)
	srv, cl, addr := startServer(t, Config{})
	if err := srv.Catalog().Add("pts", buildIndex(t, pts, ann.MBRQT)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// 20 000 probes x k = 100 is a reply of about 68 MB.
	start := time.Now()
	_, err := cl.BatchKNN(ctx, "pts", pts[:20_000], 100)
	if !client.IsBadRequest(err) || !strings.Contains(err.Error(), fmt.Sprint(wire.MaxFrame)) {
		t.Fatalf("oversized batch: got %v, want BAD_REQUEST naming the %d-byte limit", err, wire.MaxFrame)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("the refusal took %v: the batch was computed first", took)
	}
	// With k above the cardinality the bound uses what a probe can return.
	few := buildIndex(t, pts[:5], ann.MBRQT)
	if err := srv.Catalog().Add("few", few); err != nil {
		t.Fatal(err)
	}
	if res, err := cl.BatchKNN(ctx, "few", pts[:20_000], 100); err != nil || len(res) != 20_000 || len(res[0].Neighbors) != 5 {
		t.Fatalf("20 000 probes of a 5-point index: %d results, %v", len(res), err)
	}

	// A deadline that passes mid-batch, through the client.
	dctx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
	defer cancel()
	if _, err := cl.BatchKNN(dctx, "pts", pts[:4096], 10); !client.IsDeadlineExceeded(err) {
		t.Errorf("batch outliving a 2 ms deadline: got %v, want DEADLINE_EXCEEDED", err)
	}
	// A 1 ns deadline. The typed client refuses to send an expired
	// request, so probe with a raw wire frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	probes := make([][]float64, 4096)
	for i := range probes {
		probes[i] = pts[i]
	}
	payload, err := wire.EncodeRequest(
		wire.RequestHeader{ID: 1, Op: wire.OpBatchKNN, Timeout: time.Nanosecond},
		&wire.BatchKNNReq{Index: "pts", K: 10, Points: probes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	_, kind, _, body, err := wire.DecodeResponse(reply)
	if err != nil {
		t.Fatal(err)
	}
	if kind != wire.KindError || body.(*wire.ErrorReply).Code != wire.CodeDeadlineExceeded {
		t.Errorf("1 ns deadline: got kind %d body %+v, want DEADLINE_EXCEEDED", kind, body)
	}
	srv.Catalog().RequireNoPinnedFrames(t)
}

// TestGracefulDrain starts a streamed join, then shuts the server down
// mid-stream: the join must run to completion with full parity while
// fresh requests are refused with SHUTTING_DOWN.
func TestGracefulDrain(t *testing.T) {
	pts := randomPoints(106, 20_000, 2)
	ix := buildIndex(t, pts, ann.MBRQT)
	srv, cl, addr := startServer(t, Config{})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// k is large enough that the reply (≈ 10 MB) cannot hide in the
	// loopback socket buffers: the server blocks on its stream until this
	// test reads it, so the join is still in flight when the probe below
	// arrives however the goroutines are scheduled.
	const k = 16
	want, err := ann.JoinAll(context.Background(), ix, ix, k, true, ann.QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// A second connection, established before the drain begins.
	cl2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	st, err := cl.SelfJoin(ctx, "pts", k)
	if err != nil {
		t.Fatal(err)
	}
	// Pull the first result so the join is demonstrably in flight.
	if !st.Next() {
		t.Fatalf("join produced nothing: %v", st.Err())
	}
	results := []ann.Result{st.Result()}

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()

	// Wait until the drain flag is visible, then probe with a fresh
	// request on the second connection.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := cl2.KNN(ctx, "pts", ann.Point{1, 2}, 1); !client.IsShuttingDown(err) {
		t.Errorf("request during drain: got %v, want SHUTTING_DOWN", err)
	}

	// The in-flight stream runs to completion, unharmed.
	for st.Next() {
		results = append(results, st.Result())
	}
	if err := st.Err(); err != nil {
		t.Fatalf("drained join failed: %v", err)
	}
	if !reflect.DeepEqual(results, want) {
		t.Fatalf("drained join diverges from direct call (%d vs %d results)", len(results), len(want))
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown returned %v", err)
	}
	// New connections are refused once drained.
	if _, err := client.Dial(addr); err == nil {
		t.Error("dial succeeded after drain")
	}
}

// TestMixedWorkloadRace is the ≥64-goroutine interleaved workload of
// the issue: kNN, batch kNN, range, joins, pairs, and catalog
// open/stats/close traffic against one server, with exact parity
// against direct library calls and zero pinned frames at the end.
// Run with -race.
func TestMixedWorkloadRace(t *testing.T) {
	rPts := randomPoints(107, 300, 2)
	sPts := randomPoints(108, 400, 2)
	rix := buildIndex(t, rPts, ann.MBRQT)
	six := buildIndex(t, sPts, ann.RStar)

	// A page file for the catalog open/close churn.
	pageFile := filepath.Join(t.TempDir(), "scratch.pages")
	scratch, err := ann.BuildIndex(randomPoints(109, 200, 2), ann.IndexConfig{PageFile: pageFile})
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := scratch.Close(); err != nil {
		t.Fatal(err)
	}

	srv, _, addr := startServer(t, Config{MaxInFlight: 8, MaxQueue: 1 << 20, Metrics: obs.NewRegistry()})
	if err := srv.Catalog().Add("r", rix); err != nil {
		t.Fatal(err)
	}
	if err := srv.Catalog().Add("s", six); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Direct-call baselines, computed once.
	wantJoin, err := ann.JoinAll(context.Background(), rix, six, 2, false, ann.QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantSelf, err := ann.JoinAll(context.Background(), rix, rix, 1, true, ann.QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantCP, err := ann.ClosestPairsContext(context.Background(), rix, six, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ann.Point{10, 10}, ann.Point{70, 70}
	wantIDs, wantPts, err := six.RangeSearchWithPoints(lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 64
	const iters = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for it := 0; it < iters; it++ {
				switch (g + it) % 6 {
				case 0: // point kNN
					q := rPts[rng.Intn(len(rPts))]
					want, err := six.NearestNeighbors(q, 3)
					if err != nil {
						errc <- err
						return
					}
					got, err := cl.KNN(ctx, "s", q, 3)
					if err != nil {
						errc <- fmt.Errorf("g%d knn: %w", g, err)
						return
					}
					if !reflect.DeepEqual(got, want) {
						errc <- fmt.Errorf("g%d: knn parity failure", g)
						return
					}
				case 1: // batch kNN
					start := rng.Intn(250)
					qs := rPts[start : start+10]
					got, err := cl.BatchKNN(ctx, "s", qs, 2)
					if err != nil {
						errc <- fmt.Errorf("g%d batch: %w", g, err)
						return
					}
					for i, q := range qs {
						want, err := six.NearestNeighbors(q, 2)
						if err != nil {
							errc <- err
							return
						}
						if !reflect.DeepEqual(got[i].Neighbors, want) {
							errc <- fmt.Errorf("g%d: batch parity failure at %d", g, i)
							return
						}
					}
				case 2: // streamed AkNN join
					st, err := cl.Join(ctx, "r", "s", 2)
					if err != nil {
						errc <- fmt.Errorf("g%d join: %w", g, err)
						return
					}
					var got []ann.Result
					for st.Next() {
						got = append(got, st.Result())
					}
					if err := st.Err(); err != nil {
						errc <- fmt.Errorf("g%d join stream: %w", g, err)
						return
					}
					if !reflect.DeepEqual(got, wantJoin) {
						errc <- fmt.Errorf("g%d: join parity failure", g)
						return
					}
				case 3: // streamed self-join
					st, err := cl.SelfJoin(ctx, "r", 1)
					if err != nil {
						errc <- fmt.Errorf("g%d self-join: %w", g, err)
						return
					}
					var got []ann.Result
					for st.Next() {
						got = append(got, st.Result())
					}
					if err := st.Err(); err != nil {
						errc <- fmt.Errorf("g%d self-join stream: %w", g, err)
						return
					}
					if !reflect.DeepEqual(got, wantSelf) {
						errc <- fmt.Errorf("g%d: self-join parity failure", g)
						return
					}
				case 4: // range + closest pairs
					gotIDs, gotPts, err := cl.Range(ctx, "s", lo, hi)
					if err != nil {
						errc <- fmt.Errorf("g%d range: %w", g, err)
						return
					}
					if !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(gotPts, wantPts) {
						errc <- fmt.Errorf("g%d: range parity failure", g)
						return
					}
					gotCP, err := cl.ClosestPairs(ctx, "r", "s", 5, false)
					if err != nil {
						errc <- fmt.Errorf("g%d pairs: %w", g, err)
						return
					}
					if !reflect.DeepEqual(gotCP, wantCP) {
						errc <- fmt.Errorf("g%d: closest-pairs parity failure", g)
						return
					}
				case 5: // catalog churn: open a private name, stats, close
					name := fmt.Sprintf("scratch-%d-%d", g, it)
					info, err := cl.Open(ctx, name, pageFile)
					if err != nil {
						errc <- fmt.Errorf("g%d open: %w", g, err)
						return
					}
					if info.Points != 200 {
						errc <- fmt.Errorf("g%d: opened index has %d points", g, info.Points)
						return
					}
					if _, err := cl.Stats(ctx, name); err != nil {
						errc <- fmt.Errorf("g%d stats: %w", g, err)
						return
					}
					if _, err := cl.List(ctx); err != nil {
						errc <- fmt.Errorf("g%d list: %w", g, err)
						return
					}
					if err := cl.CloseIndex(ctx, name); err != nil {
						errc <- fmt.Errorf("g%d close: %w", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	srv.Catalog().RequireNoPinnedFrames(t)
}
