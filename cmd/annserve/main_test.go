package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
)

// TestServeSmoke is the `make serve-smoke` CI check: start the daemon
// on a temp index, run a batch kNN and a streamed self-AkNN through the
// client, deliver a real SIGTERM, and assert a clean drain.
func TestServeSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := make([]ann.Point, 1500)
	for i := range pts {
		pts[i] = ann.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	pageFile := filepath.Join(t.TempDir(), "pts.pages")
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{PageFile: pageFile})
	if err != nil {
		t.Fatal(err)
	}
	wantSelf, err := ann.JoinAll(context.Background(), ix, ix, 4, true, ann.QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantKNN, err := ix.NearestNeighbors(pts[7], 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ann.Point{20, 20}, ann.Point{60, 60}
	wantIDs, wantPts, err := ix.RangeSearchWithPoints(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
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
			"-index", "pts=" + pageFile,
			"-drain-timeout", "30s",
		}, safeStderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Batch kNN through the client.
	got, err := cl.BatchKNN(ctx, "pts", []ann.Point{pts[7]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0].Neighbors, wantKNN) {
		t.Fatalf("served batch kNN diverges from direct call")
	}

	// Streamed self-AkNN through the client.
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
		t.Fatalf("served self-AkNN diverges from direct call (%d vs %d results)", len(gotSelf), len(wantSelf))
	}

	// Streamed box query, in the index's traversal order.
	gotIDs, gotPts, err := cl.Range(ctx, "pts", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) == 0 || !reflect.DeepEqual(gotIDs, wantIDs) || !reflect.DeepEqual(gotPts, wantPts) {
		t.Fatalf("served box query diverges from direct call (%d vs %d rows)", len(gotIDs), len(wantIDs))
	}

	// SIGTERM → clean drain.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
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

// TestObsServeSmoke is the `make obs-serve-smoke` CI check: start the
// daemon with the full observability surface enabled, run a traced
// WantReport join remotely, and assert the report comes back, the slow
// ring and in-flight table serve JSON, the Prometheus exposition
// carries the per-op quantiles, and the access log captured the
// request — then SIGTERM-drain cleanly.
func TestObsServeSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := make([]ann.Point, 1200)
	for i := range pts {
		pts[i] = ann.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	dir := t.TempDir()
	pageFile := filepath.Join(dir, "pts.pages")
	ix, err := ann.BuildIndex(pts, ann.IndexConfig{PageFile: pageFile})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	accessPath := filepath.Join(dir, "access.jsonl")

	var stderr bytes.Buffer
	var stderrMu sync.Mutex
	safeStderr := writerFunc(func(p []byte) (int, error) {
		stderrMu.Lock()
		defer stderrMu.Unlock()
		return stderr.Write(p)
	})
	readStderr := func() string {
		stderrMu.Lock()
		defer stderrMu.Unlock()
		return stderr.String()
	}

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-index", "pts=" + pageFile,
			"-pprof-addr", "127.0.0.1:0",
			"-slow-threshold", "1ns",
			"-access-log", accessPath,
			"-drain-timeout", "30s",
		}, safeStderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// The daemon announces its debug address on stderr; it starts the
	// obs server before listening, so the line is there by now.
	var obsAddr string
	for _, line := range strings.Split(readStderr(), "\n") {
		if rest, ok := strings.CutPrefix(line, "annserve: obs endpoints on http://"); ok {
			obsAddr = rest[:strings.IndexByte(rest, '/')]
		}
	}
	if obsAddr == "" {
		t.Fatalf("no obs-endpoints line on stderr:\n%s", readStderr())
	}

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// A traced, report-carrying join end to end.
	st, err := cl.SelfJoinWith(ctx, "pts", 3,
		client.JoinOptions{TraceID: "smoke-join-1", WantReport: true})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for st.Next() {
		count++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if count != len(pts) {
		t.Fatalf("join returned %d results, want %d", count, len(pts))
	}
	rep := st.Report()
	if rep == nil {
		t.Fatal("WantReport join returned no report")
	}
	if rep.TraceID != "smoke-join-1" {
		t.Errorf("report trace id %q, want smoke-join-1", rep.TraceID)
	}
	if rep.Engine.Results != uint64(count) || rep.EngineTime <= 0 || rep.BytesOut == 0 {
		t.Errorf("report not populated: %+v", rep)
	}

	getBody := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + obsAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(b)
	}

	// The slow ring captured the join (threshold 1ns) under its trace
	// id. The server records the request after the client sees the end
	// frame, so poll briefly.
	var slow struct {
		Total   uint64 `json:"total"`
		Entries []struct {
			TraceID string `json:"trace_id"`
			Op      string `json:"op"`
		} `json:"entries"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := json.Unmarshal([]byte(getBody("/debug/slow")), &slow); err != nil {
			t.Fatal(err)
		}
		if slow.Total > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	found := false
	for _, e := range slow.Entries {
		if e.TraceID == "smoke-join-1" && e.Op == "join" {
			found = true
		}
	}
	if !found {
		t.Errorf("slow ring did not capture the traced join: %+v", slow)
	}

	// The in-flight table serves valid JSON (idle by now).
	var live struct {
		Count    int   `json:"count"`
		Requests []any `json:"requests"`
	}
	if err := json.Unmarshal([]byte(getBody("/debug/requests")), &live); err != nil {
		t.Fatal(err)
	}

	// Prometheus exposition with the per-op quantile gauges.
	prom := getBody("/metrics/prom")
	for _, want := range []string{
		"server_join_latency_ns_p50",
		"server_join_latency_ns_bucket",
		"server_requests",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %s", want)
		}
	}

	// SIGTERM → clean drain.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(readStderr(), "drained cleanly") {
		t.Fatalf("drain was not clean:\n%s", readStderr())
	}

	// The access log on disk holds one parseable JSONL record per
	// request, the traced join among them.
	raw, err := os.ReadFile(accessPath)
	if err != nil {
		t.Fatal(err)
	}
	foundAccess := false
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			TraceID string `json:"trace_id"`
			Op      string `json:"op"`
			Latency int64  `json:"latency_ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad access log line %q: %v", line, err)
		}
		if rec.TraceID == "smoke-join-1" && rec.Op == "join" && rec.Latency > 0 {
			foundAccess = true
		}
	}
	if !foundAccess {
		t.Errorf("access log missing the traced join:\n%s", raw)
	}
}

// TestFlagValidation pins the daemon's argument errors.
func TestFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-index", "nopath"}, &stderr, nil); err == nil {
		t.Error("malformed -index accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-index", "x=" + filepath.Join(t.TempDir(), "missing.pages")}, &stderr, nil); err == nil {
		t.Error("missing index file accepted")
	}
}
