package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// TestServedMutations drives the insert/delete wire ops end to end:
// writes through the client change what subsequent served queries see,
// error classification matches the client helpers, and every write is
// timed under its index's label.
func TestServedMutations(t *testing.T) {
	pts := randomPoints(110, 200, 2)
	ix := buildIndex(t, pts)
	reg := obs.NewRegistry()
	srv, cl, _ := startServer(t, Config{Metrics: reg})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Insert a far-corner point and find it as its own nearest neighbor.
	target := ann.Point{99.5, 99.5}
	size, err := cl.Insert(ctx, "pts", []uint64{9000}, []ann.Point{target})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if size != uint64(len(pts))+1 {
		t.Fatalf("insert reported size %d, want %d", size, len(pts)+1)
	}
	nb, err := cl.KNN(ctx, "pts", target, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 1 || nb[0].ID != 9000 {
		t.Fatalf("post-insert NN = %v, want id 9000", nb)
	}

	// Delete it again; a second delete finds nothing.
	found, size, err := cl.Delete(ctx, "pts", []uint64{9000}, []ann.Point{target})
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if found != 1 || size != uint64(len(pts)) {
		t.Fatalf("delete reported found=%d size=%d", found, size)
	}
	if found, _, err = cl.Delete(ctx, "pts", []uint64{9000}, []ann.Point{target}); err != nil || found != 0 {
		t.Fatalf("re-delete: found=%d err=%v", found, err)
	}

	// Validation failures surface as BAD_REQUEST before anything is
	// logged or applied.
	if _, err := cl.Insert(ctx, "pts", []uint64{1}, []ann.Point{{1, 2, 3}}); !client.IsBadRequest(err) {
		t.Fatalf("dim-mismatch insert: %v, want BAD_REQUEST", err)
	}
	if _, err := cl.Insert(ctx, "pts", []uint64{1, 2}, []ann.Point{{1, 2}}); !client.IsBadRequest(err) {
		t.Fatalf("id/point count mismatch: %v, want BAD_REQUEST", err)
	}
	if _, err := cl.Insert(ctx, "nope", []uint64{1}, []ann.Point{{1, 2}}); !client.IsNotFound(err) {
		t.Fatalf("unknown index: %v, want NOT_FOUND", err)
	}

	// The WRITE_FAILED classification helper matches the wire code.
	if !client.IsWriteFailed(&wire.Error{Code: wire.CodeWriteFailed}) {
		t.Fatal("IsWriteFailed must match CodeWriteFailed")
	}
	if client.IsWriteFailed(&wire.Error{Code: wire.CodeBadRequest}) {
		t.Fatal("IsWriteFailed must not match other codes")
	}

	// Every write above, refused ones included, has a per-index latency
	// histogram. The server observes a request after flushing its reply,
	// so the last one may not be in yet.
	want := map[string]uint64{
		"server.insert.pts.latency_ns":  3,
		"server.delete.pts.latency_ns":  2,
		"server.insert.nope.latency_ns": 1,
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		hists, missing := reg.Snapshot().Histograms, ""
		for name, n := range want {
			if hists[name].Count != n {
				missing = fmt.Sprintf("%s = %+v, want count %d", name, hists[name], n)
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(missing)
		}
	}
}

// TestWriteLatencyHistograms: every op a client can send has a per-op
// latency histogram, the write ops included — an acknowledged insert and
// delete must show up under server.insert.latency_ns and
// server.delete.latency_ns on /metrics and on /metrics/prom.
func TestWriteLatencyHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	ix := buildIndex(t, randomPoints(111, 200, 2))
	srv, cl, _ := startServer(t, Config{Metrics: reg})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(obs.Mux(reg, srv.DebugRoutes()...))
	defer web.Close()

	ctx := context.Background()
	p := ann.Point{50.5, 50.5}
	if _, err := cl.Insert(ctx, "pts", []uint64{9001}, []ann.Point{p}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, _, err := cl.Delete(ctx, "pts", []uint64{9001}, []ann.Point{p}); err != nil {
		t.Fatalf("delete: %v", err)
	}

	get := func(path string) string {
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	// The server observes a request's latency after its reply is flushed,
	// so the acknowledged delete may not be in the histogram yet.
	var snap obs.Snapshot
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
			t.Fatalf("/metrics is not a registry snapshot: %v", err)
		}
		observed := snap.Histograms["server.insert.latency_ns"].Count > 0 && snap.Histograms["server.delete.latency_ns"].Count > 0
		if observed || time.Now().After(deadline) {
			break
		}
	}
	for _, op := range []string{"insert", "delete"} {
		h, ok := snap.Histograms["server."+op+".latency_ns"]
		if !ok || h.Count != 1 {
			t.Errorf("/metrics: server.%s.latency_ns = %+v (present %v), want count 1", op, h, ok)
		}
	}
	prom := get("/metrics/prom")
	for _, want := range []string{"server_insert_latency_ns_count 1", "server_delete_latency_ns_count 1"} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics/prom missing %q", want)
		}
	}
}
