package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/datagen"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// --- scripted backend ----------------------------------------------------------

// fakeBackend is a scripted wire-level shard backend: it completes the
// handshake, decodes request frames and hands each to the test, which
// decides if and when a reply is written. What a real backend cannot
// show — which connection a request arrived on, and a reply withheld on
// purpose — is exactly what the pool tests assert on.
type fakeBackend struct {
	addr string
	ln   net.Listener
	// reqs carries every decoded request in arrival order. The buffer
	// only keeps connection readers from blocking on a test that has
	// stopped listening; no test leaves that many unread.
	reqs     chan *fakeReq
	accepted atomic.Int32 // connections accepted so far
	open     atomic.Int32 // of those, not yet closed by the router
	joins    atomic.Int32 // join requests a serveShard loop has taken

	mu    sync.Mutex
	conns []net.Conn
}

// fakeReq is one request as the fake backend read it.
type fakeReq struct {
	conn int // ordinal of the connection it arrived on
	hdr  wire.RequestHeader
	body wire.Message
	c    net.Conn
}

func startFakeBackend(t testing.TB) *fakeBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{addr: ln.Addr().String(), ln: ln, reqs: make(chan *fakeReq, 256)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fb.mu.Lock()
			fb.conns = append(fb.conns, c)
			fb.mu.Unlock()
			ord := int(fb.accepted.Add(1)) - 1
			fb.open.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer fb.open.Add(-1)
				defer c.Close()
				if wire.ReadHandshake(c) != nil {
					return
				}
				for {
					payload, err := wire.ReadFrame(c)
					if err != nil {
						return
					}
					hdr, body, err := wire.DecodeRequest(payload)
					if err != nil {
						t.Errorf("fake backend: %v", err)
						return
					}
					fb.reqs <- &fakeReq{conn: ord, hdr: hdr, body: body, c: c}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		fb.kill()
		wg.Wait()
	})
	return fb
}

// kill stops accepting and closes every connection: the node is gone.
func (fb *fakeBackend) kill() {
	fb.ln.Close()
	fb.mu.Lock()
	for _, c := range fb.conns {
		c.Close()
	}
	fb.mu.Unlock()
}

// next returns the next request to reach the backend, failing the test
// when none does in time — which is how head-of-line blocking shows.
func (fb *fakeBackend) next(t testing.TB, what string) *fakeReq {
	t.Helper()
	select {
	case q := <-fb.reqs:
		return q
	case <-time.After(3 * time.Second):
		t.Fatalf("%s never reached the backend", what)
		return nil
	}
}

// send writes one response frame for the request.
func (q *fakeReq) send(t testing.TB, kind wire.ResponseKind, body wire.Message) {
	t.Helper()
	payload, err := wire.EncodeResponse(q.hdr.ID, kind, q.hdr.Op, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(q.c, payload); err != nil {
		t.Fatalf("fake backend reply: %v", err)
	}
}

// reply writes one response frame for the request, ignoring a write
// error: off the test goroutine, a closed connection is the test's doing.
func (q *fakeReq) reply(kind wire.ResponseKind, body wire.Message) {
	if payload, err := wire.EncodeResponse(q.hdr.ID, kind, q.hdr.Op, body, nil); err == nil {
		wire.WriteFrame(q.c, payload)
	}
}

// answerKNN replies to a kNN request with one neighbor of the given
// local id. A routed point kNN reaches a shard as a KNN, never as a
// batch of one.
func (q *fakeReq) answerKNN(t testing.TB, id uint64) {
	t.Helper()
	if q.hdr.Op != wire.OpKNN {
		t.Fatalf("fake backend got a %v request, want %v", q.hdr.Op, wire.OpKNN)
	}
	q.send(t, wire.KindResult, &wire.KNNReply{
		Neighbors: []wire.Neighbor{{ID: id, Dist: 1, Point: []float64{1, 1}}},
	})
}

// oneShardMap is a dataset of one shard, "pts-0", served at addr.
func oneShardMap(addr string) *MapFile {
	return &MapFile{
		Name: "pts", Curve: "hilbert",
		BoundsLo: []float64{0, 0}, BoundsHi: []float64{1000, 1000},
		Shards: []wire.ShardInfo{{
			Name: "pts-0", Addr: addr, LoKey: 0, HiKey: math.MaxUint64, Count: 1,
			MBRLo: []float64{0, 0}, MBRHi: []float64{1000, 1000},
		}},
	}
}

// async runs one routed call on a goroutine of its own and delivers
// what it returned: a uint64, or the error.
func async(call func() (uint64, error)) <-chan any {
	out := make(chan any, 1)
	go func() {
		v, err := call()
		if err != nil {
			out <- err
			return
		}
		out <- v
	}()
	return out
}

// asyncKNN issues a routed k=1 probe and delivers the answering
// neighbor's id.
func asyncKNN(cl *client.Client) <-chan any {
	return async(func() (uint64, error) {
		nbs, err := cl.KNN(context.Background(), "pts", ann.Point{5, 5}, 1)
		if err != nil {
			return 0, err
		}
		if len(nbs) != 1 {
			return 0, fmt.Errorf("got %d neighbors, want 1", len(nbs))
		}
		return nbs[0].ID, nil
	})
}

// asyncJoin runs a routed self-join and delivers its row count.
func asyncJoin(cl *client.Client) <-chan any {
	return async(func() (uint64, error) {
		st, err := cl.SelfJoin(context.Background(), "pts", 1)
		if err != nil {
			return 0, err
		}
		var rows uint64
		for st.Next() {
			rows++
		}
		return rows, st.Close()
	})
}

// await returns what an async call delivered, failing the test on an
// error or a timeout.
func await(t testing.TB, what string, ch <-chan any) uint64 {
	t.Helper()
	select {
	case v := <-ch:
		if err, ok := v.(error); ok {
			t.Fatalf("%s: %v", what, err)
		}
		return v.(uint64)
	case <-time.After(3 * time.Second):
		t.Fatalf("%s did not complete", what)
		return 0
	}
}

// --- head-of-line blocking -----------------------------------------------------

// TestNoHeadOfLineBlocking holds one client's request to a shard
// unanswered — a kNN, then a whole self-join stream — and requires a
// second client's kNN to the same shard to reach the backend on a
// connection of its own and complete first. With one connection per
// backend the second request waits for the first and the test times out.
func TestNoHeadOfLineBlocking(t *testing.T) {
	for _, held := range []string{"knn", "selfjoin"} {
		t.Run(held, func(t *testing.T) {
			fb := startFakeBackend(t)
			_, addr := serveRouter(t, Config{}, oneShardMap(fb.addr))
			clA, clB := dial(t, addr), dial(t, addr)

			var doneA <-chan any
			if held == "knn" {
				doneA = asyncKNN(clA)
			} else {
				doneA = asyncJoin(clA)
			}
			a := fb.next(t, "request A")

			doneB := asyncKNN(clB)
			b := fb.next(t, "kNN B, sent while A is held,")
			if b.conn == a.conn {
				t.Fatalf("kNN B arrived on connection %d, behind the held request A", b.conn)
			}
			b.answerKNN(t, 7)
			if id := await(t, "kNN B", doneB); id != 7 {
				t.Fatalf("kNN B answered id %d, want 7", id)
			}
			select {
			case v := <-doneA:
				t.Fatalf("request A completed before the backend answered it: %v", v)
			default:
			}

			if held == "knn" {
				a.answerKNN(t, 3)
				if id := await(t, "kNN A", doneA); id != 3 {
					t.Fatalf("kNN A answered id %d, want 3", id)
				}
				return
			}
			a.send(t, wire.KindStream, &wire.JoinFrame{Results: []wire.Result{{
				ID: 0, Point: []float64{1, 1},
				Neighbors: []wire.Neighbor{{ID: 1, Dist: 1, Point: []float64{1, 2}}},
			}}})
			a.send(t, wire.KindEnd, &wire.StreamEnd{Count: 1})
			if rows := await(t, "self-join A", doneA); rows != 1 {
				t.Fatalf("self-join A streamed %d rows, want 1", rows)
			}
		})
	}
}

// --- pool lifecycle ------------------------------------------------------------

// outstanding reports how many connections of the backend are checked
// out and how many sit idle.
func (b *backend) outstanding() (out, idle int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.out), len(b.idle)
}

// TestPoolRestartAndBreaker plays a backend restart and then its
// death against a pool holding several idle connections: the first
// transient failure drops every pooled connection and the one retry, on
// a fresh connection, succeeds against the restarted node; against a
// dead node the RPC fails SHARD_UNAVAILABLE, the breaker opens, and RPCs
// fail without dialling until the cool-off has passed.
func TestPoolRestartAndBreaker(t *testing.T) {
	var pts []ann.Point
	for _, p := range uniformPoints(3, 200) {
		pts = append(pts, ann.Point(p))
	}
	node := startBackend(t, "s", pts)
	bk := newBackend("s", node.addr, Config{
		MaxFanout:   4,
		Dial:        client.DialConfig{Retries: 1, Backoff: 5 * time.Millisecond},
		BackoffBase: 200 * time.Millisecond,
		BackoffMax:  time.Second,
	})
	defer bk.close()
	ctx := context.Background()
	calls := 0
	probe := func(cli *client.Client) error {
		calls++
		_, err := cli.KNN(ctx, "s", ann.Point{1, 1}, 1)
		return err
	}

	// Three RPCs in flight at once leave three idle connections.
	var held []*client.Client
	for i := 0; i < 3; i++ {
		cli, err := bk.checkout(ctx)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, cli)
	}
	for _, cli := range held {
		if err := probe(cli); err != nil {
			t.Fatal(err)
		}
		bk.checkin(cli)
	}
	if out, idle := bk.outstanding(); out != 0 || idle != 3 {
		t.Fatalf("after three concurrent RPCs: %d checked out, %d idle; want 0, 3", out, idle)
	}

	// Restart: every pooled connection is stale, the retry is not.
	node.kill(t)
	node = startBackendAt(t, node.addr, "s", pts)
	calls = 0
	if err := bk.do(ctx, probe); err != nil {
		t.Fatalf("RPC across a backend restart: %v", err)
	}
	if calls != 2 {
		t.Fatalf("RPC across a restart ran %d attempts, want 2 (stale connection, then a fresh one)", calls)
	}
	if out, idle := bk.outstanding(); out != 0 || idle != 1 {
		t.Fatalf("after the restart: %d checked out, %d idle; want 0, 1 (the stale siblings dropped)", out, idle)
	}

	// Death: one attempt on the pooled connection, a failed redial, and
	// the breaker opens.
	node.kill(t)
	calls = 0
	if err := bk.do(ctx, probe); !client.IsShardUnavailable(err) {
		t.Fatalf("RPC to a dead backend: got %v, want SHARD_UNAVAILABLE", err)
	}
	if calls != 1 {
		t.Fatalf("RPC to a dead backend ran %d attempts on a connection, want 1", calls)
	}
	if err := bk.do(ctx, probe); !client.IsShardUnavailable(err) || calls != 1 {
		t.Fatalf("RPC under an open breaker: err %v after %d attempts, want SHARD_UNAVAILABLE without one", err, calls-1)
	}
	if out, idle := bk.outstanding(); out != 0 || idle != 0 {
		t.Fatalf("dead backend keeps %d checked-out and %d idle connections", out, idle)
	}

	// Back up: once the cool-off has passed the next RPC dials again.
	startBackendAt(t, node.addr, "s", pts)
	bk.mu.Lock()
	cool := time.Until(bk.downUntil)
	bk.mu.Unlock()
	time.Sleep(cool + time.Millisecond)
	if err := bk.do(ctx, probe); err != nil {
		t.Fatalf("RPC after the cool-off: %v", err)
	}
}

// TestPoolBoundedByMaxFanout drives one backend from six clients
// through a router with MaxFanout 2: no more than two connections are
// ever checked out, a third request waits for a slot rather than a
// third connection, and the whole run dials exactly two.
func TestPoolBoundedByMaxFanout(t *testing.T) {
	const clients, perClient, fanout = 6, 5, 2
	fb := startFakeBackend(t)
	rt, addr := serveRouter(t, Config{MaxFanout: fanout}, oneShardMap(fb.addr))
	bk := rt.datasets["pts"].shards[0].backend

	var done []<-chan any
	for c := 0; c < clients; c++ {
		cl := dial(t, addr)
		done = append(done, async(func() (uint64, error) {
			for i := 0; i < perClient; i++ {
				if _, err := cl.KNN(context.Background(), "pts", ann.Point{5, 5}, 1); err != nil {
					return 0, err
				}
			}
			return perClient, nil
		}))
	}

	first, second := fb.next(t, "the first kNN"), fb.next(t, "a second, concurrent kNN")
	if first.conn == second.conn {
		t.Fatalf("two concurrent kNNs share connection %d", first.conn)
	}
	select {
	case q := <-fb.reqs:
		t.Fatalf("a third kNN was admitted past MaxFanout %d (on connection %d)", fanout, q.conn)
	case <-time.After(50 * time.Millisecond):
	}
	first.answerKNN(t, 1)
	second.answerKNN(t, 1)
	for i := 2; i < clients*perClient; i++ {
		q := fb.next(t, "a kNN")
		if out, _ := bk.outstanding(); out > fanout {
			t.Fatalf("%d connections checked out, MaxFanout is %d", out, fanout)
		}
		q.answerKNN(t, 1)
	}
	for c, ch := range done {
		await(t, fmt.Sprintf("client %d", c), ch)
	}
	if n := fb.accepted.Load(); n != fanout {
		t.Fatalf("the run dialled %d backend connections, want %d", n, fanout)
	}
}

// TestShutdownClosesBackendConnections shuts a router down around a
// backend that never answers: when the drain's patience runs out, the
// checked-out connection is closed under the stuck request (which fails
// SHUTTING_DOWN instead of holding the drain forever), the idle one is
// closed with it, and no router goroutine is left.
func TestShutdownClosesBackendConnections(t *testing.T) {
	fb := startFakeBackend(t)
	rt, addr := serveRouter(t, Config{}, oneShardMap(fb.addr))
	clA, clB := dial(t, addr), dial(t, addr)

	stuck := asyncKNN(clA)
	fb.next(t, "the kNN to be left unanswered")
	doneB := asyncKNN(clB)
	fb.next(t, "a second kNN").answerKNN(t, 7)
	await(t, "the answered kNN", doneB)
	if n := fb.open.Load(); n != 2 {
		t.Fatalf("%d backend connections open before shutdown, want 2 (one checked out, one idle)", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := rt.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown around a hung backend returned %v, want its context's deadline error", err)
	}
	select {
	case v := <-stuck:
		if err, ok := v.(error); !ok || !client.IsShuttingDown(err) {
			t.Fatalf("the stuck kNN returned %v, want SHUTTING_DOWN", v)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the stuck kNN outlived Shutdown")
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		open := fb.open.Load()
		left := routerGoroutines()
		if open == 0 && left == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Shutdown: %d backend connections still open; router goroutines:\n%s", open, left)
		}
		time.Sleep(time.Millisecond)
	}
}

// routerGoroutines returns the stacks of the goroutines running Router
// methods, "" when there are none.
func routerGoroutines() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var left string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "router.(*Router).") {
			left += g + "\n\n"
		}
	}
	return left
}

// --- streaming joins -----------------------------------------------------------

// fakeShards serves a routed dataset "pts" of one scripted shard per
// count and returns the router's map and the join rows the client must
// see, in global ids. Shard i's points lie on the segment x ∈ [100i,
// 100i+1], each one's neighbor at distance 1/count, so every fix-up probe
// is pruned and a join reaches the fakes only as one SelfJoin per shard
// (and a List). before[i], when set, runs as shard i's join request
// arrives, before any row is written.
func fakeShards(t testing.TB, counts []int, before map[int]func()) (*MapFile, []*fakeBackend, []wire.Result) {
	t.Helper()
	n := uint64(len(counts))
	m := &MapFile{Name: "pts", Curve: "zorder", BoundsLo: []float64{0, 0}, BoundsHi: []float64{100 * float64(n), 1}}
	var fbs []*fakeBackend
	var want []wire.Result
	step := math.MaxUint64 / n
	for i, c := range counts {
		x0 := 100 * float64(i)
		pt := func(j int) []float64 { return []float64{x0 + float64(j)/float64(c), 0} }
		rows := make([]wire.Result, c)
		base := uint64(len(want))
		for j := range rows {
			next := (j + 1) % c
			// The backend streams traversal order; here, descending ids.
			rows[c-1-j] = wire.Result{ID: uint64(j), Point: pt(j),
				Neighbors: []wire.Neighbor{{ID: uint64(next), Dist: 1 / float64(c), Point: pt(next)}}}
			want = append(want, wire.Result{ID: base + uint64(j), Point: pt(j),
				Neighbors: []wire.Neighbor{{ID: base + uint64(next), Dist: 1 / float64(c), Point: pt(next)}}})
		}
		fb := startFakeBackend(t)
		fb.serveShard(t, rows, before[i])
		fbs = append(fbs, fb)
		hi := uint64(i+1)*step - 1
		if i == len(counts)-1 {
			hi = math.MaxUint64
		}
		m.Shards = append(m.Shards, wire.ShardInfo{Name: fmt.Sprintf("pts-%d", i), Addr: fb.addr,
			LoKey: uint64(i) * step, HiKey: hi, IDBase: base, Count: uint64(c),
			MBRLo: []float64{x0, 0}, MBRHi: []float64{x0 + 1, 0}})
	}
	return m, fbs, want
}

// serveShard answers List and join requests with rows until the test
// ends; before, when set, runs as a join request arrives.
func (fb *fakeBackend) serveShard(t testing.TB, rows []wire.Result, before func()) {
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for {
			var q *fakeReq
			select {
			case q = <-fb.reqs:
			case <-done:
				return
			}
			switch q.body.(type) {
			case *wire.ListReq:
				q.reply(wire.KindResult, &wire.ListReply{})
			case *wire.JoinReq:
				fb.joins.Add(1)
				if before != nil {
					before()
				}
				for at := 0; at < len(rows); at += wire.JoinFrameResults {
					q.reply(wire.KindStream, &wire.JoinFrame{Results: rows[at:min(at+wire.JoinFrameResults, len(rows))]})
				}
				q.reply(wire.KindEnd, &wire.StreamEnd{Count: uint64(len(rows))})
			}
		}
	}()
}

// streamJoin runs a routed k=1 self-join on a goroutine of its own and
// delivers its rows as they arrive, then the stream's terminal error
// (nil after a clean end) on errc.
func streamJoin(cl *client.Client) (<-chan wire.Result, <-chan error) {
	rows, errc := make(chan wire.Result, 1<<14), make(chan error, 1)
	go func() {
		defer close(rows)
		st, err := cl.SelfJoin(context.Background(), "pts", 1)
		if err != nil {
			errc <- err
			return
		}
		for st.Next() {
			rows <- st.Result()
		}
		errc <- st.Close()
	}()
	return rows, errc
}

// take receives n rows, failing the test if they do not arrive in time.
func take(t *testing.T, rows <-chan wire.Result, n int) []wire.Result {
	t.Helper()
	var got []wire.Result
	for len(got) < n {
		select {
		case r, ok := <-rows:
			if !ok {
				t.Fatalf("the stream ended after %d rows, want %d", len(got), n)
			}
			got = append(got, r)
		case <-time.After(3 * time.Second):
			t.Fatalf("%d of %d rows arrived in time", len(got), n)
		}
	}
	return got
}

// TestRoutedJoinStreamsShardByShard holds the last shard's join
// unanswered: the rows of the shards before it must reach the client
// meanwhile, in ascending global id. A router that gathers every shard
// before it emits sends nothing and the test times out.
func TestRoutedJoinStreamsShardByShard(t *testing.T) {
	hold := make(chan struct{})
	m, _, want := fakeShards(t, []int{600, 700, 500}, map[int]func(){2: func() { <-hold }})
	_, addr := serveRouter(t, Config{}, m)
	rows, errc := streamJoin(dial(t, addr))

	got := take(t, rows, 1300)
	close(hold)
	got = append(got, take(t, rows, 500)...)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("routed rows differ from the shards' rows in global id order")
	}
}

// TestJoinShardLostMidStream kills the last shard as its join request
// arrives, after the first shards' rows went out: the stream must end
// SHARD_UNAVAILABLE, never END, and the rows sent before must be exact.
func TestJoinShardLostMidStream(t *testing.T) {
	var last *fakeBackend
	m, fbs, want := fakeShards(t, []int{600, 600, 600, 600}, map[int]func(){3: func() { last.kill() }})
	last = fbs[3]
	_, addr := serveRouter(t, Config{Dial: client.DialConfig{Retries: 1, Backoff: time.Millisecond}}, m)
	rows, errc := streamJoin(dial(t, addr))
	var got []wire.Result
	for r := range rows {
		got = append(got, r)
	}
	if err := <-errc; !client.IsShardUnavailable(err) {
		t.Fatalf("stream after losing a shard ended with %v, want SHARD_UNAVAILABLE", err)
	}
	if !reflect.DeepEqual(got, want[:1800]) {
		t.Fatalf("%d rows before the loss, want the first three shards' 1800, exact", len(got))
	}
}

// TestAbandonedRoutedJoin closes the client after its first row while
// the second shard's join is held: once released, the router reads at
// most the shard after it, never the last one, and leaves no
// checked-out connection or goroutine behind.
func TestAbandonedRoutedJoin(t *testing.T) {
	hold := make(chan struct{})
	m, fbs, _ := fakeShards(t, []int{3000, 3000, 3000, 3000}, map[int]func(){1: func() { <-hold }})
	reg := obs.NewRegistry()
	rt, addr := serveRouter(t, Config{Metrics: reg}, m)
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := streamJoin(cl)
	take(t, rows, 1)
	cl.Close()
	close(hold)

	spawned := reg.Counter("router.scatter_goroutines")
	deadline := time.Now().Add(3 * time.Second)
	for {
		out := 0
		for _, s := range rt.datasets["pts"].shards {
			n, _ := s.backend.outstanding()
			out += n
		}
		left := routerGoroutines()
		if out == 0 && left == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned join: %d backend connections checked out; router goroutines:\n%s", out, left)
		}
		time.Sleep(time.Millisecond)
	}
	n := spawned.Value()
	time.Sleep(50 * time.Millisecond)
	if spawned.Value() != n {
		t.Fatal("router.scatter_goroutines still growing after the join was abandoned")
	}
	if j := fbs[3].joins.Load(); j != 0 {
		t.Fatalf("the last shard was asked for its join %d times after the client left, want 0", j)
	}
}

// --- concurrent parity ---------------------------------------------------------

// TestConcurrentRoutedParity runs eight clients at once through the
// router — seven interleaving kNN, batches of 64 and range queries, one
// streaming a self-join — and holds every answer to the single node's,
// with serial scatter (MaxFanout 1: everything shares one slot) and the
// default fan-out. Run under -race it is the check that pooled
// connections and caller-run legs share nothing they should not.
func TestConcurrentRoutedParity(t *testing.T) {
	pts := uniformPoints(11, 600)
	for _, fanout := range []int{1, 0} {
		t.Run(fmt.Sprintf("fanout%d", fanout), func(t *testing.T) {
			f := startFixture(t, pts, 4, fanout)
			ctx := context.Background()
			const clients = 8
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				routed, single := dial(t, f.routerAddr), dial(t, f.singleAddr)
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					if c == 0 {
						joinParity(t, routed, single)
						return
					}
					for round := 0; round < 6; round++ {
						at := (c*97 + round*41) % len(f.pts)
						q := f.pts[at]
						want, err1 := single.KNN(ctx, "pts", q, 4)
						got, err2 := routed.KNN(ctx, "pts", q, 4)
						if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
							t.Errorf("client %d kNN at %v: routed %+v (%v), single %+v (%v)", c, q, got, err2, want, err1)
							return
						}
						batch := make([]ann.Point, 64)
						for i := range batch {
							batch[i] = f.pts[(at+i*7)%len(f.pts)]
						}
						wantB, err1 := single.BatchKNN(ctx, "pts", batch, 4)
						gotB, err2 := routed.BatchKNN(ctx, "pts", batch, 4)
						if err1 != nil || err2 != nil || !reflect.DeepEqual(gotB, wantB) {
							t.Errorf("client %d batch at %d: routed and single answers differ (%v, %v)", c, at, err2, err1)
							return
						}
						lo, hi := ann.Point{q[0] - 80, q[1] - 80}, ann.Point{q[0] + 80, q[1] + 80}
						wantR, wantP, err1 := single.Range(ctx, "pts", lo, hi)
						gotR, gotP, err2 := routed.Range(ctx, "pts", lo, hi)
						wantR, wantP = byID(wantR, wantP)
						if err1 != nil || err2 != nil || len(gotR) == 0 || !reflect.DeepEqual(gotR, wantR) || !reflect.DeepEqual(gotP, wantP) {
							t.Errorf("client %d range around %v: routed %v (%v), single %v (%v)", c, q, gotR, err2, wantR, err1)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// joinParity holds one routed self-join to the single node's, row by
// row. It reports with t.Error: it runs beside the test's goroutine.
func joinParity(t *testing.T, routed, single *client.Client) {
	got, err := collectJoin(t, routed, "pts", 4)
	if err != nil {
		t.Errorf("routed self-join: %v", err)
		return
	}
	want, err := collectJoin(t, single, "pts", 4)
	if err != nil {
		t.Errorf("single-node self-join: %v", err)
		return
	}
	sortResults(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self-join: routed (%d rows) and single (%d rows) streams differ", len(got), len(want))
	}
}

// --- microbench ----------------------------------------------------------------

// BenchmarkRoutedMix is the router layer's microbench: the spine's
// route_read point mix (80 % kNN, 20 % BatchKNN 64, k = 10) from two
// closed-loop clients against four clustered shards, 20 K points in
// all. Beside ns/op it reports the median latency of each verb and the
// goroutines the router spawned per request.
func BenchmarkRoutedMix(b *testing.B) {
	const clients, k = 2, 10
	f := startFixture(b, datagen.GaussianClusters(7, 20000, datagen.ScaledBounds(2, 1000), 20, 0.01), 4, 0)
	ctx := context.Background()
	conns := []*client.Client{f.routed, dial(b, f.routerAddr)}
	spawned := f.reg.Counter("router.scatter_goroutines")
	before := spawned.Value()

	lat := make([][2][]float64, clients) // per client: kNN, batch latencies in µs
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			batch := make([]ann.Point, 64)
			for i := c; i < b.N; i += clients {
				verb := 0
				start := time.Now()
				var err error
				if rng.Intn(5) == 0 {
					verb = 1
					for j := range batch {
						batch[j] = f.pts[rng.Intn(len(f.pts))]
					}
					_, err = conns[c].BatchKNN(ctx, "pts", batch, k)
				} else {
					_, err = conns[c].KNN(ctx, "pts", f.pts[rng.Intn(len(f.pts))], k)
				}
				if err != nil {
					b.Error(err)
					return
				}
				lat[c][verb] = append(lat[c][verb], float64(time.Since(start).Nanoseconds())/1e3)
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()

	for verb, name := range []string{"knn_p50_us", "batch_p50_us"} {
		var all []float64
		for c := range lat {
			all = append(all, lat[c][verb]...)
		}
		if len(all) > 0 {
			sort.Float64s(all)
			b.ReportMetric(all[len(all)/2], name)
		}
	}
	b.ReportMetric(float64(spawned.Value()-before)/float64(b.N), "goroutines/req")
}

// BenchmarkRoutedJoin streams a routed self-join at k = 4 over four
// clustered shards, 20 K points in all. Beside ns/op it reports rows per
// second and the largest live heap sampled while the joins ran
// (runtime/metrics' /gc/heap/live:bytes, what the last GC marked live:
// the in-process backends' indexes are in it too). A router that holds
// the whole answer before emitting shows as a higher peak.
func BenchmarkRoutedJoin(b *testing.B) {
	const k = 4
	f := startFixture(b, datagen.GaussianClusters(7, 20000, datagen.ScaledBounds(2, 1000), 20, 0.01), 4, 0)
	ctx := context.Background()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			metrics.Read(live)
			peak = max(peak, live[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := f.routed.SelfJoin(ctx, "pts", k)
		if err != nil {
			b.Fatal(err)
		}
		for st.Next() {
			rows++
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-sampled
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(peak)/(1<<20), "peak-live-MB")
}
