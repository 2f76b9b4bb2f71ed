package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/curve"
	"allnn/internal/geom"
	"allnn/internal/router"
	"allnn/internal/server"
)

// TestRouterSmoke is the `make router-smoke` CI check: two in-process
// annserve shards behind one annrouter started through its real main
// path (shard-map file, flags, signal handling), byte parity against
// direct library calls over the curve-ordered dataset, then a real
// SIGTERM and a clean drain.
func TestRouterSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]geom.Point, 1200)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	part, err := curve.Partition(pts, 2, curve.Hilbert)
	if err != nil {
		t.Fatal(err)
	}

	// One in-process annserve per shard.
	addrs := make([]string, len(part.Shards))
	var ordered []ann.Point
	for i, s := range part.Shards {
		shardPts := make([]ann.Point, len(s.Points))
		for j, idx := range s.Points {
			shardPts[j] = ann.Point(pts[idx])
			ordered = append(ordered, ann.Point(pts[idx]))
		}
		ix, err := ann.BuildIndex(shardPts, ann.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{})
		if err := srv.Catalog().Add(fmt.Sprintf("pts-%d", i), ix); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-serveDone
			srv.Catalog().CloseAll()
		})
		addrs[i] = ln.Addr().String()
	}

	// Ground truth: direct library calls over the curve-ordered points
	// (the router's global id order).
	full, err := ann.BuildIndex(ordered, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantKNN, err := full.NearestNeighbors(ordered[7], 3)
	if err != nil {
		t.Fatal(err)
	}
	wantSelf, err := ann.SelfAllKNearestNeighborsContext(context.Background(), full, 4, ann.QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The library emits traversal order; the router emits ascending
	// global id. Canonicalize the ground truth to the router's order.
	sort.Slice(wantSelf, func(a, b int) bool { return wantSelf[a].ID < wantSelf[b].ID })
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}

	mapPath := filepath.Join(t.TempDir(), "pts.shardmap.json")
	if err := router.MapFromPartitioning("pts", part, addrs).Save(mapPath); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	var stderrMu sync.Mutex
	safeStderr := writerFunc(func(p []byte) (int, error) {
		stderrMu.Lock()
		defer stderrMu.Unlock()
		return stderr.Write(p)
	})

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-shardmap", mapPath,
			"-drain-timeout", "30s",
		}, safeStderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("router exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("router never became ready")
	}

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Routed kNN parity against the direct call.
	got, err := cl.KNN(ctx, "pts", ordered[7], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantKNN) {
		t.Fatalf("routed kNN diverges from the direct call: %+v vs %+v", got, wantKNN)
	}

	// Routed self-AkNN parity, id-canonicalized.
	st, err := cl.SelfJoin(ctx, "pts", 4)
	if err != nil {
		t.Fatal(err)
	}
	var gotSelf []ann.Result
	for st.Next() {
		gotSelf = append(gotSelf, st.Result())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSelf, wantSelf) {
		t.Fatalf("routed self-AkNN diverges from the direct call (%d vs %d results)", len(gotSelf), len(wantSelf))
	}

	// The topology is served back over the wire.
	m, err := cl.ShardMap(ctx, "pts")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 || m.Name != "pts" {
		t.Fatalf("served shard map: %+v", m)
	}

	// SIGTERM → clean drain.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("router exited with %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("router did not drain after SIGTERM")
	}
	stderrMu.Lock()
	log := stderr.String()
	stderrMu.Unlock()
	if !strings.Contains(log, "drained cleanly") {
		t.Fatalf("drain was not clean:\n%s", log)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRouterFlagValidation pins the daemon's argument errors.
func TestRouterFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(nil, &stderr, nil); err == nil || !strings.Contains(err.Error(), "-shardmap") {
		t.Errorf("no shard map: got %v", err)
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	if err := run([]string{"-shardmap", missing}, &stderr, nil); err == nil {
		t.Error("missing shard-map file accepted")
	}
	// There is one failure policy, and no flag to choose another.
	if err := run([]string{"-shardmap", missing, "-mode", "degraded"}, &stderr, nil); err == nil || !strings.Contains(err.Error(), "-mode") {
		t.Errorf("-mode: got %v, want the undefined flag refused", err)
	}
}
