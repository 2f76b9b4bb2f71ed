package client

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"allnn/ann"
	"allnn/internal/server"
	"allnn/internal/wire"
)

// countingConn counts the Write calls and bytes that reach a connection.
type countingConn struct {
	net.Conn
	writes, bytes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in one countingConn
// sharing the listener's counters.
type countingListener struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: &l.writes, bytes: &l.bytes}, nil
}

// cannedHandler answers KNN, BatchKNN and List with fixed replies of the
// requested shape and every other op with NOT_FOUND.
func cannedHandler(_ context.Context, hdr wire.RequestHeader, body wire.Message, _ string, w *wire.ResponseWriter) error {
	nbs := func(k uint32) []wire.Neighbor {
		out := make([]wire.Neighbor, k)
		for i := range out {
			out[i] = wire.Neighbor{ID: uint64(i), Dist: float64(i), Point: []float64{float64(i), 1}}
		}
		return out
	}
	switch req := body.(type) {
	case *wire.KNNReq:
		return w.Send(wire.KindResult, &wire.KNNReply{Neighbors: nbs(req.K)})
	case *wire.BatchKNNReq:
		res := make([]wire.Result, len(req.Points))
		for i, p := range req.Points {
			res[i] = wire.Result{ID: uint64(i), Point: p, Neighbors: nbs(req.K)}
		}
		return w.Send(wire.KindResult, &wire.BatchKNNReply{Results: res})
	case *wire.ListReq:
		return w.Send(wire.KindResult, &wire.ListReply{Indexes: []wire.IndexInfo{{Name: "pts", Points: 100, Dim: 2}}})
	}
	return &wire.Error{Code: wire.CodeNotFound, Msg: "no such index"}
}

// TestOneWritePerFrame pins the framing contract on both sides of a
// connection: a request costs the client exactly one Write, and a
// response frame up to the service's buffer size costs the service one.
// Writing the length prefix and the payload straight to the socket
// would make it two.
func TestOneWritePerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvLn := &countingListener{Listener: ln}
	svc := &wire.Service{Name: "test", Handler: cannedHandler}
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.Serve(srvLn) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		<-serveDone
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	var cliWrites, cliBytes atomic.Int64
	cl := newClient(countingConn{Conn: conn, writes: &cliWrites, bytes: &cliBytes})
	defer cl.Close()

	ctx := context.Background()
	batch := make([]ann.Point, 64)
	for i := range batch {
		batch[i] = ann.Point{float64(i), 2}
	}
	const bufSize = 4096 // bufio's default, which Service uses
	smallReplies := 0
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"KNN", func() error { _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 10); return err }},
		{"BatchKNN64", func() error { _, err := cl.BatchKNN(ctx, "pts", batch, 10); return err }},
		{"List", func() error { _, err := cl.List(ctx); return err }},
		// A typed server error is an answer: the connection stays usable.
		{"Stats", func() error {
			if _, err := cl.Stats(ctx, "missing"); !IsNotFound(err) {
				t.Errorf("Stats of a missing index: %v, want NOT_FOUND", err)
			}
			return nil
		}},
		{"KNN after an error reply", func() error { _, err := cl.KNN(ctx, "pts", ann.Point{3, 4}, 10); return err }},
	} {
		cw, sw, sb := cliWrites.Load(), srvLn.writes.Load(), srvLn.bytes.Load()
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cliWrites.Load() - cw; got != 1 {
			t.Errorf("%s request: %d client writes, want 1", tc.name, got)
		}
		writes, bytes := srvLn.writes.Load()-sw, srvLn.bytes.Load()-sb
		if bytes <= bufSize {
			smallReplies++
			if writes != 1 {
				t.Errorf("%s reply of %d bytes: %d service writes, want 1", tc.name, bytes, writes)
			}
		}
	}
	if smallReplies < 4 {
		t.Errorf("only %d replies fit the service buffer; the service side went unchecked", smallReplies)
	}
}

// TestTransportErrorEndsConnection scripts a backend that sends half of
// a reply frame, stalls past the client's socket deadline and only then
// sends the rest. The first request fails at the socket; the second must
// fail at once with the same error, without sending anything — read on,
// it would take the stale tail for the start of its own reply.
func TestTransportErrorEndsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	sawSecond := make(chan bool, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if wire.ReadHandshake(c) != nil {
			return
		}
		payload, err := wire.ReadFrame(c)
		if err != nil {
			return
		}
		hdr, _, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		nbs := make([]wire.Neighbor, 10)
		for i := range nbs {
			nbs[i] = wire.Neighbor{ID: uint64(i), Dist: float64(i), Point: []float64{1, 2}}
		}
		reply, err := wire.EncodeResponse(hdr.ID, wire.KindResult, hdr.Op, &wire.KNNReply{Neighbors: nbs}, nil)
		if err != nil {
			return
		}
		frame := append([]byte{byte(len(reply) >> 24), byte(len(reply) >> 16), byte(len(reply) >> 8), byte(len(reply))}, reply...)
		c.Write(frame[:len(frame)/2])
		<-release
		c.Write(frame[len(frame)/2:])
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		_, err = wire.ReadFrame(c)
		sawSecond <- err == nil
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The socket deadline is the request deadline plus ioGrace.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	_, err1 := cl.KNN(ctx, "pts", ann.Point{1, 2}, 10)
	cancel()
	if err1 == nil {
		t.Fatal("KNN against a stalled half reply succeeded")
	}
	if _, ok := err1.(*wire.Error); ok {
		t.Fatalf("KNN failed with a server error %v, want a transport error", err1)
	}
	close(release)
	time.Sleep(50 * time.Millisecond) // let the stale tail arrive

	for i := 2; i <= 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 10)
		cancel()
		if err != err1 {
			t.Errorf("request %d: %v, want the latched %v", i, err, err1)
		}
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Errorf("request %d took %v to fail, want at once", i, d)
		}
	}
	if <-sawSecond {
		t.Error("the client sent another request on a connection with a half-read reply")
	}
}

// BenchmarkClientRoundTrip measures the client hop alone: a served KNN
// (k = 10) and a BatchKNN of 64 over loopback against an in-memory 2-D
// index of 20 000 points, one request at a time, and a streamed self-join
// of it.
func BenchmarkClientRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]ann.Point, 20000)
	for i := range pts {
		pts[i] = ann.Point{rng.Float64() * 1000, rng.Float64() * 1000}
	}
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
		srv.Catalog().CloseAll()
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	for _, bc := range []struct {
		name string
		op   func(i int) error
	}{
		{"knn", func(i int) error { _, err := cl.KNN(ctx, "pts", pts[i%len(pts)], 10); return err }},
		{"batch64", func(i int) error {
			at := (i * 64) % (len(pts) - 64)
			_, err := cl.BatchKNN(ctx, "pts", pts[at:at+64], 10)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.op(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/op")
		})
	}

	// A streamed self-join (k = 4) of the whole index. allocs/row counts
	// the process's allocations — engine, server and client together —
	// per streamed row, so a per-row copy anywhere on the path shows.
	b.Run("selfjoin", func(b *testing.B) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs, rows := ms.Mallocs, 0
		for i := 0; i < b.N; i++ {
			st, err := cl.SelfJoin(ctx, "pts", 4)
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
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(rows), "allocs/row")
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	})
}
