package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/curve"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/obs"
	"allnn/internal/server"
	"allnn/internal/wire"
)

// --- fixture -----------------------------------------------------------------

// testBackend is one in-process annserve shard the tests can kill.
type testBackend struct {
	srv  *server.Server
	addr string
	done chan error
}

func (b *testBackend) kill(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		t.Fatalf("killing backend %s: %v", b.addr, err)
	}
	if err := <-b.done; err != nil {
		t.Fatalf("backend %s serve: %v", b.addr, err)
	}
	b.done = nil
	b.srv.Catalog().CloseAll()
}

// fixture is a routed deployment: n shard backends, a curve-ordered
// single-node baseline over the identical points, and a router.
type fixture struct {
	name       string
	pts        []ann.Point // curve order == global id order
	perShard   [][2]uint64 // [idBase, count] per shard
	backends   []*testBackend
	reg        *obs.Registry
	routerAddr string
	singleAddr string
	routed     *client.Client
	single     *client.Client
}

// startBackend serves the given points as index name on a loopback
// listener and registers cleanup.
func startBackend(t testing.TB, name string, pts []ann.Point) *testBackend {
	t.Helper()
	return startBackendAt(t, "127.0.0.1:0", name, pts)
}

// startBackendAt is startBackend on a given address (a killed
// backend's, to play its restart).
func startBackendAt(t testing.TB, addr, name string, pts []ann.Point) *testBackend {
	t.Helper()
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Catalog().Add(name, ix); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	b := &testBackend{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { b.done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if b.done == nil {
			return // already killed by the test
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-b.done
		srv.Catalog().CloseAll()
	})
	// One round trip proves Serve is accepting: a test that kills the
	// backend straight away must not overtake the goroutine above, or
	// Serve finds the server drained and returns an error.
	cl, err := client.Dial(b.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.List(context.Background()); err != nil {
		t.Fatal(err)
	}
	return b
}

// startFixture partitions pts into shards Hilbert shards and stands up
// the whole deployment. Backoff is kept short so failure tests don't
// stall on the circuit breaker.
func startFixture(t testing.TB, pts []geom.Point, shards int, fanout int) *fixture {
	t.Helper()
	part, err := curve.Partition(pts, shards, curve.Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{name: "pts", reg: obs.NewRegistry()}
	addrs := make([]string, len(part.Shards))
	for i, s := range part.Shards {
		shardPts := make([]ann.Point, len(s.Points))
		for j, idx := range s.Points {
			shardPts[j] = ann.Point(pts[idx])
			f.pts = append(f.pts, ann.Point(pts[idx]))
		}
		f.perShard = append(f.perShard, [2]uint64{uint64(len(f.pts) - len(shardPts)), uint64(len(shardPts))})
		b := startBackend(t, fmt.Sprintf("pts-%d", i), shardPts)
		f.backends = append(f.backends, b)
		addrs[i] = b.addr
	}
	sb := startBackend(t, "pts", f.pts)

	_, f.routerAddr = serveRouter(t, Config{
		MaxFanout:   fanout,
		Metrics:     f.reg,
		Dial:        client.DialConfig{Retries: 1, Backoff: 10 * time.Millisecond},
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}, MapFromPartitioning("pts", part, addrs))

	f.singleAddr = sb.addr
	f.routed = dial(t, f.routerAddr)
	f.single = dial(t, f.singleAddr)
	return f
}

// serveRouter starts a router over the given shard map on a loopback
// listener; cleanup drains it.
func serveRouter(t testing.TB, cfg Config, m *MapFile) (*Router, string) {
	t.Helper()
	rt, err := New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Serve(rln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("router serve: %v", err)
		}
	})
	return rt, rln.Addr().String()
}

func dial(t testing.TB, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// uniformPoints is the general-position workload: uniform random floats
// never tie, so parity is exact with no canonicalization caveats.
func uniformPoints(seed int64, n int) []geom.Point {
	return datagen.Uniform(seed, n, datagen.ScaledBounds(2, 1000))
}

// queryMix samples on-data and off-data query points.
func queryMix(pts []ann.Point) []ann.Point {
	qs := []ann.Point{{0, 0}, {500, 500}, {999.5, 3.25}}
	for i := 0; i < len(pts); i += 37 {
		qs = append(qs, pts[i])
	}
	return qs
}

// collectJoin drains a self-join stream; the error is returned
// alongside whatever arrived.
func collectJoin(t *testing.T, cl *client.Client, name string, k int) ([]ann.Result, error) {
	t.Helper()
	st, err := cl.SelfJoin(context.Background(), name, k)
	if err != nil {
		return nil, err
	}
	var out []ann.Result
	for st.Next() {
		out = append(out, st.Result())
	}
	return out, st.Close()
}

// sortResults canonicalizes a join stream by ascending id (the order
// the router emits natively; a single node emits traversal order).
func sortResults(rs []ann.Result) {
	sort.Slice(rs, func(a, b int) bool { return rs[a].ID < rs[b].ID })
}

// byID returns a box answer's parallel ids and points in ascending id,
// the routed order (a single node answers in traversal order).
func byID(ids []uint64, pts []ann.Point) ([]uint64, []ann.Point) {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	sids, spts := make([]uint64, len(ids)), make([]ann.Point, len(ids))
	for i, o := range order {
		sids[i], spts[i] = ids[o], pts[o]
	}
	return sids, spts
}

type pair struct {
	r, s uint64
	d    float64
}

func collectWithin(t *testing.T, cl *client.Client, name string, dist float64) ([]pair, error) {
	t.Helper()
	var out []pair
	_, err := cl.WithinDistance(context.Background(), name, name, dist, true, func(r, s uint64, d float64) error {
		out = append(out, pair{r, s, d})
		return nil
	})
	sort.Slice(out, func(a, b int) bool {
		if out[a].r != out[b].r {
			return out[a].r < out[b].r
		}
		return out[a].s < out[b].s
	})
	return out, err
}

// --- parity ------------------------------------------------------------------

// TestRoutedParity pins the acceptance criterion: every routed answer
// is identical to the single node's over the same curve-ordered
// dataset — point and batched kNN exactly (k ∈ {1, 4}), the box query
// as id-sorted rows, within-distance as the sorted pair
// multiset, and the ANN self-join per point after id-canonicalizing the
// single node's traversal-ordered stream. Runs with serial scatter
// (fanout 1) and parallel fan-out.
func TestRoutedParity(t *testing.T) {
	pts := uniformPoints(11, 600)
	for _, fanout := range []int{1, 0} {
		label := "parallel"
		if fanout == 1 {
			label = "serial"
		}
		t.Run(label, func(t *testing.T) {
			f := startFixture(t, pts, 4, fanout)
			ctx := context.Background()

			for _, k := range []int{1, 4} {
				for _, q := range queryMix(f.pts) {
					want, err := f.single.KNN(ctx, "pts", q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := f.routed.KNN(ctx, "pts", q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d q=%v: routed %+v, single %+v", k, q, got, want)
					}
				}

				qs := queryMix(f.pts)
				want, err := f.single.BatchKNN(ctx, "pts", qs, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.routed.BatchKNN(ctx, "pts", qs, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch k=%d: routed and single answers differ", k)
				}

				gotJoin, err := collectJoin(t, f.routed, "pts", k)
				if err != nil {
					t.Fatal(err)
				}
				if !sort.SliceIsSorted(gotJoin, func(a, b int) bool { return gotJoin[a].ID < gotJoin[b].ID }) {
					t.Fatalf("k=%d: routed join stream is not in ascending global id order", k)
				}
				wantJoin, err := collectJoin(t, f.single, "pts", k)
				if err != nil {
					t.Fatal(err)
				}
				sortResults(wantJoin)
				if len(gotJoin) != len(wantJoin) {
					t.Fatalf("k=%d: routed join has %d results, single %d", k, len(gotJoin), len(wantJoin))
				}
				for i := range wantJoin {
					if !reflect.DeepEqual(gotJoin[i], wantJoin[i]) {
						t.Fatalf("k=%d id=%d: routed %+v, single %+v", k, wantJoin[i].ID, gotJoin[i], wantJoin[i])
					}
				}
			}

			for _, box := range [][2]ann.Point{
				{{100, 100}, {300, 300}},
				{{0, 0}, {1000, 1000}},
				{{400, 400}, {401, 401}}, // likely empty
			} {
				wantIDs, wantPts, err := f.single.Range(ctx, "pts", box[0], box[1])
				if err != nil {
					t.Fatal(err)
				}
				wantIDs, wantPts = byID(wantIDs, wantPts)
				ids, rpts, err := f.routed.Range(ctx, "pts", box[0], box[1])
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != len(wantIDs) || len(ids) > 0 && (!reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(rpts, wantPts)) {
					t.Fatalf("range %v: routed %v, single (sorted) %v", box, ids, wantIDs)
				}
				for i, id := range ids {
					if !reflect.DeepEqual(rpts[i], f.pts[id]) {
						t.Fatalf("range %v: id %d has point %v, dataset has %v", box, id, rpts[i], f.pts[id])
					}
				}
			}

			gotW, err := collectWithin(t, f.routed, "pts", 30)
			if err != nil {
				t.Fatal(err)
			}
			wantW, err := collectWithin(t, f.single, "pts", 30)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotW) == 0 {
				t.Fatal("within-distance produced no pairs; widen the radius")
			}
			if !reflect.DeepEqual(gotW, wantW) {
				t.Fatalf("within d=30: routed %d pairs, single %d pairs, contents differ", len(gotW), len(wantW))
			}
		})
	}

	// Tiny shards: every row is short of k after its owner answers, so
	// the fan-out bound rests on the other shards' NXNDIST alone.
	for _, tiny := range []struct {
		n  int
		ks []int
	}{{4, []int{1, 2}}, {20, []int{6}}} {
		t.Run(fmt.Sprintf("tiny%d", tiny.n), func(t *testing.T) {
			f := startFixture(t, uniformPoints(13, tiny.n), 4, 0)
			for i, sh := range f.perShard {
				if sh[1] != uint64(tiny.n/4) {
					t.Fatalf("shard %d holds %d points, want %d", i, sh[1], tiny.n/4)
				}
			}
			ctx := context.Background()
			for _, k := range tiny.ks {
				for _, q := range queryMix(f.pts) {
					want, err := f.single.KNN(ctx, "pts", q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := f.routed.KNN(ctx, "pts", q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("k=%d q=%v: routed %+v, single %+v", k, q, got, want)
					}
				}
				gotJoin, err := collectJoin(t, f.routed, "pts", k)
				if err != nil {
					t.Fatal(err)
				}
				wantJoin, err := collectJoin(t, f.single, "pts", k)
				if err != nil {
					t.Fatal(err)
				}
				sortResults(wantJoin)
				if !reflect.DeepEqual(gotJoin, wantJoin) {
					t.Fatalf("k=%d: routed join %+v, single %+v", k, gotJoin, wantJoin)
				}
			}
		})
	}
}

// TestRoutedKNNPrunesShards verifies the two-phase NXNDIST bound does
// real work: on clustered data, interior queries must skip shards whose
// MINDIST exceeds the merged k-best bound, and parity must survive the
// pruning.
func TestRoutedKNNPrunesShards(t *testing.T) {
	pts := datagen.GaussianClusters(7, 800, datagen.ScaledBounds(2, 1000), 20, 0.01)
	// Clamping at the bounds corners can create coincident points whose
	// tie order is engine-defined; drop duplicates to keep parity exact.
	seen := map[[2]float64]bool{}
	var uniq []geom.Point
	for _, p := range pts {
		key := [2]float64{p[0], p[1]}
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, p)
		}
	}
	f := startFixture(t, uniq, 4, 0)
	ctx := context.Background()

	pruned := f.reg.Counter("router.shards_pruned")
	before := pruned.Value()
	for i := 0; i < len(f.pts); i += 11 {
		q := f.pts[i]
		want, err := f.single.KNN(ctx, "pts", q, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.routed.KNN(ctx, "pts", q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("q=%v: routed %+v, single %+v", q, got, want)
		}
	}
	if pruned.Value() == before {
		t.Fatal("no shard contacts pruned across a clustered kNN sweep; the NXNDIST bound is not biting")
	}
}

// --- failure model -----------------------------------------------------------

// deadShardQuery returns a query point owned by the given shard (its
// first point) and one owned by a different live shard.
func (f *fixture) ownerPoints(dead int) (deadQ, liveQ ann.Point) {
	deadBase := f.perShard[dead][0]
	deadQ = f.pts[deadBase]
	for i := range f.perShard {
		if i != dead {
			return deadQ, f.pts[f.perShard[i][0]]
		}
	}
	panic("single-shard fixture")
}

// TestStrictShardFailure kills one backend: every routed verb that
// needs the dead shard fails fast with SHARD_UNAVAILABLE, the two
// streams before their first row, while queries whose bounds prune the
// dead shard keep answering exactly.
func TestStrictShardFailure(t *testing.T) {
	pts := datagen.GaussianClusters(7, 600, datagen.ScaledBounds(2, 1000), 12, 0.01)
	f := startFixture(t, pts, 4, 0)
	ctx := context.Background()

	const dead = 1
	deadQ, liveQ := f.ownerPoints(dead)
	// Pre-failure sanity: the live query's k=1 answer, for post-kill
	// comparison (its bound must prune the dead shard).
	wantLive, err := f.routed.KNN(ctx, "pts", liveQ, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.backends[dead].kill(t)

	lo, hi := ann.Point{0, 0}, ann.Point{1000, 1000} // every shard's MBR
	// rows turns a stream's row count into an error: a failed stream
	// must deliver none.
	rows := func(n int, err error) error {
		if n > 0 {
			return fmt.Errorf("%d rows before %v", n, err)
		}
		return err
	}
	for _, verb := range []struct {
		name string
		call func() error
	}{
		{"KNN owned by the dead shard", func() error { _, err := f.routed.KNN(ctx, "pts", deadQ, 1); return err }},
		{"BatchKNN", func() error { _, err := f.routed.BatchKNN(ctx, "pts", []ann.Point{liveQ, deadQ}, 1); return err }},
		{"Range", func() error { ids, _, err := f.routed.Range(ctx, "pts", lo, hi); return rows(len(ids), err) }},
		{"SelfJoin", func() error { got, err := collectJoin(t, f.routed, "pts", 4); return rows(len(got), err) }},
		{"WithinDistance", func() error { got, err := collectWithin(t, f.routed, "pts", 20); return rows(len(got), err) }},
	} {
		if err := verb.call(); !client.IsShardUnavailable(err) {
			t.Errorf("%s with a dead shard: got %v, want SHARD_UNAVAILABLE", verb.name, err)
		}
	}
	if unavailable := f.reg.Counter("router.shard_unavailable").Value(); unavailable == 0 {
		t.Fatal("router.shard_unavailable counter did not advance")
	}

	// An on-cluster k=1 query owned by a live shard: the NXNDIST-seeded
	// bound prunes the dead shard, so the router still answers, exactly.
	gotLive, err := f.routed.KNN(ctx, "pts", liveQ, 1)
	if err != nil {
		t.Fatalf("kNN pruning the dead shard: %v", err)
	}
	if !reflect.DeepEqual(gotLive, wantLive) {
		t.Fatalf("post-failure answer changed: %+v, want %+v", gotLive, wantLive)
	}
}

// TestJoinLastShardDead kills the last shard before a routed self-join
// arrives: the router reads the shards in order, yet the stream must
// fail SHARD_UNAVAILABLE before its first row.
func TestJoinLastShardDead(t *testing.T) {
	f := startFixture(t, uniformPoints(13, 600), 4, 0)
	f.backends[3].kill(t)
	got, err := collectJoin(t, f.routed, "pts", 4)
	if !client.IsShardUnavailable(err) || len(got) > 0 {
		t.Fatalf("self-join with the last shard dead: %d rows, %v; want none and SHARD_UNAVAILABLE", len(got), err)
	}
}

// TestJoinStaleShardMap writes a point straight into shard 0's backend,
// behind the router's static map: its local id is the map's count, whose
// global id is shard 1's first. The routed self-join must fail INTERNAL
// naming the shard, the id and the count, with no row, rather than emit
// that global id twice.
func TestJoinStaleShardMap(t *testing.T) {
	f := startFixture(t, uniformPoints(13, 600), 4, 0)
	count := f.perShard[0][1]
	cl := dial(t, f.backends[0].addr)
	if _, err := cl.Insert(context.Background(), "pts-0", []uint64{count}, []ann.Point{f.pts[0]}); err != nil {
		t.Fatal(err)
	}
	got, err := collectJoin(t, f.routed, "pts", 2)
	want := fmt.Sprintf("shard pts-0 streamed local id %d again or beyond its map count %d", count, count)
	if !wire.IsCode(err, wire.CodeInternal) || !strings.Contains(err.Error(), want) || len(got) > 0 {
		t.Fatalf("self-join over a stale map: %d rows, %v; want none and INTERNAL %q", len(got), err, want)
	}
}

// TestJoinBufferedRowsBound reads router.join_buffered_rows_max after a
// routed self-join over four shards: the router held at most two
// shards' rows plus fix-up replies at once, never the whole answer.
func TestJoinBufferedRowsBound(t *testing.T) {
	f := startFixture(t, uniformPoints(29, 2000), 4, 0)
	pruned := f.reg.Counter("router.shards_pruned")
	before := pruned.Value()
	if _, err := collectJoin(t, f.routed, "pts", 4); err != nil {
		t.Fatal(err)
	}
	// Every row probes each foreign shard its bound does not prune.
	n := uint64(len(f.pts))
	fixups := n*uint64(len(f.perShard)-1) - (pruned.Value() - before)
	var counts []uint64
	for _, s := range f.perShard {
		counts = append(counts, s[1])
	}
	slices.Sort(counts)
	largest := counts[len(counts)-1]
	held := uint64(f.reg.Gauge("router.join_buffered_rows_max").Value())
	if held < largest || held > largest+counts[len(counts)-2]+fixups || held >= n {
		t.Fatalf("join held %d rows at once; want ≥ %d, ≤ the two largest shards' %d + %d fix-up rows, < %d",
			held, largest, largest+counts[len(counts)-2], fixups, n)
	}
}

// directSelfJoin is the library's self-join over the fixture's
// curve-ordered points, in ascending id order.
func (f *fixture) directSelfJoin(t *testing.T, k int) []ann.Result {
	t.Helper()
	ix, err := ann.BuildIndex(f.pts, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rows, err := ann.SelfAllKNearestNeighborsContext(context.Background(), ix, k, ann.QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sortResults(rows)
	return rows
}

// sameRows fails unless the served and routed self-joins at k both
// answer want, row for row.
func (f *fixture) sameRows(t *testing.T, k int, want []ann.Result) {
	t.Helper()
	for _, path := range []struct {
		name string
		cl   *client.Client
	}{{"served", f.single}, {"routed", f.routed}} {
		got, err := collectJoin(t, path.cl, "pts", k)
		if err != nil {
			t.Fatalf("%s k=%d: %v", path.name, k, err)
		}
		sortResults(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: %d rows differ from the direct join's %d", path.name, k, len(got), len(want))
		}
	}
}

// TestJoinRowsWiderThanAFrame joins at a k whose 512-row frame would
// exceed wire.MaxFrame (2-D, k = 1000: ≈ 33 KB a row): the stream is cut
// by bytes too, so the served and routed joins answer row for row as the
// direct one. A batch whose reply, or a k whose single join row, could
// not be framed is refused before it runs. A box whose rows pass a frame
// streams: served and routed answer the direct rows.
func TestJoinRowsWiderThanAFrame(t *testing.T) {
	f := startFixture(t, uniformPoints(17, 1001), 2, 0)
	f.sameRows(t, 1000, f.directSelfJoin(t, 1000))

	// A batch of 600 probes at k = 1001 needs ≈ 20 MB: refused on both
	// paths, and by the router before any leg, although each shard's leg
	// (≈ 500 points) would fit a frame.
	contacted := f.reg.Counter("router.shards_contacted")
	before := contacted.Value()
	for name, cl := range map[string]*client.Client{"served": f.single, "routed": f.routed} {
		if _, err := cl.BatchKNN(context.Background(), "pts", f.pts[:600], 1001); !client.IsBadRequest(err) {
			t.Errorf("%s batch with a reply wider than a frame: %v, want BAD_REQUEST", name, err)
		}
	}
	if n := contacted.Value() - before; n != 0 {
		t.Errorf("the refused batch contacted %d shards, want 0", n)
	}

	// 30-D rows of 70 000 neighbors need ≈ 18 MB each. The router refuses
	// from its shard map alone, before contacting the backend.
	const dim, n = 30, 70_000
	pts := datagen.Uniform(29, n, datagen.ScaledBounds(dim, 1))
	served := make([]ann.Point, n)
	for i, p := range pts {
		served[i] = ann.Point(p)
	}
	wide := startBackend(t, "pts-0", served)
	lo, hi := make([]float64, dim), make([]float64, dim)
	for i := range hi {
		hi[i] = 1
	}
	reg := obs.NewRegistry()
	_, routerAddr := serveRouter(t, Config{Metrics: reg}, &MapFile{Name: "pts", Curve: "zorder", BoundsLo: lo, BoundsHi: hi,
		Shards: []wire.ShardInfo{{Name: "pts-0", Addr: wide.addr, HiKey: math.MaxUint64, Count: n, MBRLo: lo, MBRHi: hi}}})
	paths := []struct {
		name string
		cl   *client.Client
		ix   string
	}{{"served", dial(t, wide.addr), "pts-0"}, {"routed", dial(t, routerAddr), "pts"}}
	for _, p := range paths {
		if _, err := collectJoin(t, p.cl, p.ix, n); !client.IsBadRequest(err) {
			t.Errorf("%s join with a row wider than a frame: %v, want BAD_REQUEST", p.name, err)
		}
	}
	if n := reg.Counter("router.shards_contacted").Value(); n != 0 {
		t.Errorf("the refused join contacted %d shards, want 0", n)
	}

	// The unit box holds every point: ≈ 17.5 MB of 250-byte rows.
	ix, err := ann.BuildIndex(served, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	wantIDs, wantPts, err := ix.RangeSearchWithPoints(lo, hi)
	if err != nil || len(wantIDs) != n {
		t.Fatalf("direct box: %d rows, %v; want %d", len(wantIDs), err, n)
	}
	for _, p := range paths {
		ids, got, err := p.cl.Range(context.Background(), p.ix, lo, hi)
		if err != nil {
			t.Fatalf("%s box of %d rows: %v", p.name, n, err)
		}
		if p.name == "routed" {
			wantIDs, wantPts = byID(wantIDs, wantPts)
		}
		if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(got, wantPts) {
			t.Errorf("%s box: %d rows differ from the direct query's %d", p.name, len(ids), len(wantIDs))
		}
	}
}

// TestKBeyondDataset asks for far more neighbors than there are points:
// every path answers as k = |S| without sizing anything by k, the server
// serves the next request, and the client refuses a k the wire cannot
// carry before sending it.
func TestKBeyondDataset(t *testing.T) {
	f := startFixture(t, uniformPoints(19, 300), 2, 0)
	want := f.directSelfJoin(t, len(f.pts))
	if got := f.directSelfJoin(t, 100_000_000); !reflect.DeepEqual(got, want) {
		t.Fatal("direct k=1e8 differs from k=|S|")
	}
	f.sameRows(t, 100_000_000, want)

	ctx := context.Background()
	for _, cl := range []*client.Client{f.single, f.routed} {
		nbs, err := cl.KNN(ctx, "pts", f.pts[0], 100_000_000)
		if err != nil || len(nbs) != len(f.pts) {
			t.Fatalf("KNN k=1e8 after the join: %d neighbors, %v; want %d", len(nbs), err, len(f.pts))
		}
		for _, k := range []int{0, -1, math.MaxUint32 + 1} {
			if _, err := cl.KNN(ctx, "pts", f.pts[0], k); !client.IsBadRequest(err) {
				t.Errorf("KNN k=%d: %v, want BAD_REQUEST", k, err)
			}
			if _, err := cl.SelfJoin(ctx, "pts", k); !client.IsBadRequest(err) {
				t.Errorf("SelfJoin k=%d: %v, want BAD_REQUEST", k, err)
			}
		}
	}
}

// TestInvalidBox sends an inverted and a mismatched box down every path:
// the library returns ErrInvalidConfig, and the server and the router
// both answer BAD_REQUEST.
func TestInvalidBox(t *testing.T) {
	f := startFixture(t, uniformPoints(23, 200), 2, 0)
	ix, err := ann.BuildIndex(f.pts, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	for _, box := range [][2]ann.Point{
		{{300, 100}, {200, 400}}, // inverted in x
		{{100, 100}, {200}},      // mismatched corners
		{{1, 2, 3}, {4, 5, 6}},   // wrong dimensionality
	} {
		if _, _, err := ix.RangeSearchWithPoints(box[0], box[1]); !errors.Is(err, ann.ErrInvalidConfig) {
			t.Errorf("direct Range %v: %v, want ErrInvalidConfig", box, err)
		}
		for name, cl := range map[string]*client.Client{"served": f.single, "routed": f.routed} {
			if _, _, err := cl.Range(ctx, "pts", box[0], box[1]); !client.IsBadRequest(err) {
				t.Errorf("%s Range %v: %v, want BAD_REQUEST", name, box, err)
			}
		}
	}
}

// TestNaNCoordinateRefused sends a NaN coordinate down every path that
// takes one: the library refuses it with ErrInvalidConfig — at build, at
// write and at query — and the server and the router answer BAD_REQUEST.
// NaN passes every comparison-based check, so before it was refused an
// accepted NaN point broke every later join.
func TestNaNCoordinateRefused(t *testing.T) {
	f := startFixture(t, uniformPoints(29, 300), 2, 0)
	nan := math.NaN()
	if _, err := ann.BuildIndex([]ann.Point{{1, 2}, {nan, 3}, {4, 5}}, ann.IndexConfig{}); !errors.Is(err, ann.ErrInvalidConfig) {
		t.Errorf("BuildIndex over a NaN point: %v, want ErrInvalidConfig", err)
	}
	ix, err := ann.BuildIndex(f.pts, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	bad := ann.Point{nan, 50}
	if err := ix.Insert(5000, bad); !errors.Is(err, ann.ErrInvalidConfig) {
		t.Errorf("direct Insert: %v, want ErrInvalidConfig", err)
	}
	if _, err := ix.NearestNeighbors(bad, 3); !errors.Is(err, ann.ErrInvalidConfig) {
		t.Errorf("direct kNN: %v, want ErrInvalidConfig", err)
	}
	if _, err := ix.BatchNearestNeighbors(context.Background(), []ann.Point{{1, 2}, bad}, 3); !errors.Is(err, ann.ErrInvalidConfig) {
		t.Errorf("direct batch kNN: %v, want ErrInvalidConfig", err)
	}
	boxes := [][2]ann.Point{{{nan, 0}, {500, 500}}, {{0, 0}, {500, nan}}}
	for _, box := range boxes {
		if _, _, err := ix.RangeSearchWithPoints(box[0], box[1]); !errors.Is(err, ann.ErrInvalidConfig) {
			t.Errorf("direct Range %v: %v, want ErrInvalidConfig", box, err)
		}
	}
	// The refused insert left nothing behind: the self-join still runs.
	if rows, err := ann.SelfAllKNearestNeighborsContext(context.Background(), ix, 2, ann.QueryConfig{}); err != nil || len(rows) != len(f.pts) {
		t.Errorf("self-join after the refused insert: %d rows, %v; want %d", len(rows), err, len(f.pts))
	}

	ctx := context.Background()
	if _, err := f.single.Insert(ctx, "pts", []uint64{5000}, []ann.Point{bad}); !client.IsBadRequest(err) {
		t.Errorf("served Insert: %v, want BAD_REQUEST", err)
	}
	for name, cl := range map[string]*client.Client{"served": f.single, "routed": f.routed} {
		if _, err := cl.KNN(ctx, "pts", bad, 3); !client.IsBadRequest(err) {
			t.Errorf("%s kNN: %v, want BAD_REQUEST", name, err)
		}
		if _, err := cl.BatchKNN(ctx, "pts", []ann.Point{{1, 2}, bad}, 3); !client.IsBadRequest(err) {
			t.Errorf("%s batch kNN: %v, want BAD_REQUEST", name, err)
		}
		for _, box := range boxes {
			if _, _, err := cl.Range(ctx, "pts", box[0], box[1]); !client.IsBadRequest(err) {
				t.Errorf("%s Range %v: %v, want BAD_REQUEST", name, box, err)
			}
		}
	}
}

// --- request validation ------------------------------------------------------

func TestRouterRejects(t *testing.T) {
	f := startFixture(t, uniformPoints(5, 200), 2, 0)
	ctx := context.Background()

	if _, err := f.routed.KNN(ctx, "nope", ann.Point{1, 2}, 1); !client.IsNotFound(err) {
		t.Errorf("unknown dataset: got %v, want NOT_FOUND", err)
	}
	if _, err := f.routed.KNN(ctx, "pts", ann.Point{1, 2, 3}, 1); !client.IsBadRequest(err) {
		t.Errorf("dimension mismatch: got %v, want BAD_REQUEST", err)
	}
	if _, err := f.routed.KNN(ctx, "pts", ann.Point{1, 2}, 0); !client.IsBadRequest(err) {
		t.Errorf("k=0: got %v, want BAD_REQUEST", err)
	}
	st, err := f.routed.SelfJoinWith(ctx, "pts", 2, client.JoinOptions{WantReport: true})
	if err != nil {
		t.Fatal(err)
	}
	for st.Next() {
	}
	if err := st.Close(); !client.IsBadRequest(err) {
		t.Errorf("routed join asking for a report: got %v, want BAD_REQUEST", err)
	}
	if _, err := f.routed.WithinDistance(ctx, "pts", "other", 5, true, func(uint64, uint64, float64) error { return nil }); !client.IsBadRequest(err) {
		t.Errorf("cross-dataset within: got %v, want BAD_REQUEST", err)
	}
	if _, err := f.routed.Insert(ctx, "pts", nil, []ann.Point{{1, 2}}); !client.IsBadRequest(err) {
		t.Errorf("mutation through the router: got %v, want BAD_REQUEST", err)
	}
}

func TestShardMapServed(t *testing.T) {
	f := startFixture(t, uniformPoints(3, 300), 3, 0)
	m, err := f.routed.ShardMap(context.Background(), "pts")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "pts" || len(m.Shards) != 3 {
		t.Fatalf("shard map: name %q, %d shards; want pts, 3", m.Name, len(m.Shards))
	}
	var total uint64
	for i, s := range m.Shards {
		if s.Count == 0 {
			t.Errorf("shard %d is empty", i)
		}
		if s.IDBase != total {
			t.Errorf("shard %d id base %d, want %d", i, s.IDBase, total)
		}
		total += s.Count
	}
	if total != 300 {
		t.Fatalf("shard counts sum to %d, want 300", total)
	}
	if _, err := f.routed.ShardMap(context.Background(), "nope"); !client.IsNotFound(err) {
		t.Fatalf("unknown dataset shard map: got %v, want NOT_FOUND", err)
	}
}

// --- unit tests --------------------------------------------------------------

func TestInflate(t *testing.T) {
	r := geom.NewRect(geom.Point{1, 2}, geom.Point{3, 4})
	in := inflate(r, 0.5)
	if !reflect.DeepEqual(in.Lo, geom.Point{0.5, 1.5}) || !reflect.DeepEqual(in.Hi, geom.Point{3.5, 4.5}) {
		t.Fatalf("inflate = %+v", in)
	}
	// The input must be untouched (Clone semantics).
	if !reflect.DeepEqual(r.Lo, geom.Point{1, 2}) {
		t.Fatalf("inflate mutated its input: %+v", r)
	}
}
