package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/curve"
	"allnn/internal/geom"
	"allnn/internal/server"
	"allnn/internal/wire"
)

// daemon is one of the two services the lifecycle suite drives through
// their shared wire.Service: a plain annserve over dataset "pts", or an
// annrouter over two annserve shards of the same points, also "pts".
type daemon struct {
	svc  *wire.Service
	addr string
	// noLeaks asserts, after a Shutdown has returned, that the daemon
	// left no pinned buffer-pool frame and no backend socket behind.
	noLeaks func(t *testing.T)
}

func servedDaemon(t *testing.T, pts []ann.Point) *daemon {
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Catalog().CloseAll() })
	return &daemon{svc: &srv.Service, noLeaks: func(t *testing.T) {
		srv.Catalog().RequireNoPinnedFrames(t)
	}}
}

func routedDaemon(t *testing.T, pts []ann.Point) *daemon {
	gpts := make([]geom.Point, len(pts))
	for i, p := range pts {
		gpts[i] = geom.Point(p)
	}
	part, err := curve.Partition(gpts, 2, curve.Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(part.Shards))
	backends := make([]*testBackend, len(part.Shards))
	for i, s := range part.Shards {
		shardPts := make([]ann.Point, len(s.Points))
		for j, idx := range s.Points {
			shardPts[j] = pts[idx]
		}
		backends[i] = startBackend(t, fmt.Sprintf("pts-%d", i), shardPts)
		addrs[i] = backends[i].addr
	}
	rt, err := New(Config{}, MapFromPartitioning("pts", part, addrs))
	if err != nil {
		t.Fatal(err)
	}
	return &daemon{svc: &rt.Service, noLeaks: func(t *testing.T) {
		for _, b := range backends {
			b.srv.Catalog().RequireNoPinnedFrames(t)
			deadline := time.Now().Add(5 * time.Second)
			for b.srv.Conns() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("backend %s still holds %d router connections", b.addr, b.srv.Conns())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}}
}

// start serves the daemon on a loopback listener; cleanup drains it.
func (d *daemon) start(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.addr = ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- d.svc.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d.svc.Shutdown(ctx) // cases that shut down themselves get an error here
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	// One round trip proves Serve is accepting: a case that shuts the
	// daemon down straight away must not overtake the goroutine above.
	cl, err := client.Dial(d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.List(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func collectSelfJoin(t *testing.T, st *client.JoinStream) []ann.Result {
	t.Helper()
	var out []ann.Result
	for st.Next() {
		out = append(out, st.Result())
	}
	if err := st.Err(); err != nil {
		t.Fatalf("join stream: %v", err)
	}
	return out
}

// TestServiceLifecycle holds annserve and annrouter to one connection
// lifecycle: drain, panic isolation, malformed frames, the shutdown
// state machine, and a forced drain that must not wait on a client
// that stopped reading.
func TestServiceLifecycle(t *testing.T) {
	daemons := []struct {
		name string
		make func(*testing.T, []ann.Point) *daemon
	}{{"served", servedDaemon}, {"routed", routedDaemon}}

	cases := []struct {
		name string
		// n is the dataset size. A self-join at k = 16 replies ≈ 570
		// bytes a point, so 20 000 points cannot hide in the loopback
		// socket buffers: the daemon blocks on the stream until the
		// client reads it.
		n   int
		run func(t *testing.T, d *daemon)
	}{
		{"drain", 20_000, func(t *testing.T, d *daemon) {
			// A request during drain gets SHUTTING_DOWN while a stream in
			// flight completes byte-identical to an undisturbed one.
			d.start(t)
			ctx := context.Background()
			cl, probe := dial(t, d.addr), dial(t, d.addr)
			st, err := cl.SelfJoin(ctx, "pts", 16)
			if err != nil {
				t.Fatal(err)
			}
			want := collectSelfJoin(t, st)

			if st, err = cl.SelfJoin(ctx, "pts", 16); err != nil {
				t.Fatal(err)
			}
			if !st.Next() {
				t.Fatalf("join produced nothing: %v", st.Err())
			}
			got := []ann.Result{st.Result()}
			shutdown := make(chan error, 1)
			go func() {
				sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
				defer cancel()
				shutdown <- d.svc.Shutdown(sctx)
			}()
			for !d.svc.Draining() {
				time.Sleep(time.Millisecond)
			}
			if _, err := probe.KNN(ctx, "pts", ann.Point{1, 2}, 1); !client.IsShuttingDown(err) {
				t.Errorf("request during drain: got %v, want SHUTTING_DOWN", err)
			}
			got = append(got, collectSelfJoin(t, st)...)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("drained join diverges from an undisturbed one (%d vs %d results)", len(got), len(want))
			}
			if err := <-shutdown; err != nil {
				t.Errorf("Shutdown returned %v", err)
			}
		}},
		{"panic", 1_000, func(t *testing.T, d *daemon) {
			// A handler panic answers INTERNAL and the connection serves on.
			var panicked atomic.Bool
			next := d.svc.Handler
			d.svc.Handler = func(ctx context.Context, hdr wire.RequestHeader, body wire.Message, remote string, w *wire.ResponseWriter) error {
				if hdr.Op == wire.OpKNN && panicked.CompareAndSwap(false, true) {
					panic("injected handler panic")
				}
				return next(ctx, hdr, body, remote, w)
			}
			d.start(t)
			cl := dial(t, d.addr)
			ctx := context.Background()
			if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 3); !wire.IsCode(err, wire.CodeInternal) {
				t.Fatalf("panicking request: got %v, want INTERNAL", err)
			}
			if nbs, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 3); err != nil || len(nbs) != 3 {
				t.Fatalf("same connection after the panic: %d neighbors, %v", len(nbs), err)
			}
		}},
		{"bad frame", 1_000, func(t *testing.T, d *daemon) {
			// A malformed frame answers BAD_REQUEST and closes the connection.
			d.start(t)
			conn, err := net.Dial("tcp", d.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if err := wire.WriteHandshake(conn); err != nil {
				t.Fatal(err)
			}
			if err := wire.WriteFrame(conn, []byte{1, 2, 3}); err != nil {
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
			if er, ok := body.(*wire.ErrorReply); kind != wire.KindError || !ok || er.Code != wire.CodeBadRequest {
				t.Fatalf("malformed frame: got kind %d body %+v, want BAD_REQUEST", kind, body)
			}
			if _, err := wire.ReadFrame(conn); err != io.EOF {
				t.Errorf("after BAD_REQUEST: read %v, want the connection closed (EOF)", err)
			}
		}},
		{"after shutdown", 1_000, func(t *testing.T, d *daemon) {
			// Serve after Shutdown and a second Shutdown both error.
			d.start(t)
			ctx := context.Background()
			if err := d.svc.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if err := d.svc.Shutdown(ctx); err == nil {
				t.Error("second Shutdown succeeded")
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := d.svc.Serve(ln); err == nil {
				t.Error("Serve after Shutdown succeeded")
			}
		}},
		{"stalled reader", 100_000, func(t *testing.T, d *daemon) {
			// The client holds a self-join stream without reading; a forced
			// drain must not wait on it.
			d.start(t)
			cl := dial(t, d.addr)
			if _, err := cl.SelfJoin(context.Background(), "pts", 16); err != nil {
				t.Fatal(err)
			}
			// Wait for the stream to stall: response bytes stop growing.
			for prev := uint64(0); ; {
				time.Sleep(100 * time.Millisecond)
				n := d.svc.BytesOut()
				if n > 1<<20 && n == prev {
					break
				}
				prev = n
			}
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			shutdown := make(chan error, 1)
			go func() { shutdown <- d.svc.Shutdown(ctx) }()
			select {
			case err := <-shutdown:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("forced drain: got %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Shutdown still blocked 2 s after a 200 ms drain deadline")
			}
			d.noLeaks(t)
		}},
	}

	for _, dm := range daemons {
		for _, tc := range cases {
			t.Run(dm.name+"/"+tc.name, func(t *testing.T) {
				var pts []ann.Point
				for _, p := range uniformPoints(31, tc.n) {
					pts = append(pts, ann.Point(p))
				}
				tc.run(t, dm.make(t, pts))
			})
		}
	}
}
