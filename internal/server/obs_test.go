package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"allnn/ann"
	"allnn/ann/client"
	"allnn/internal/core"
	"allnn/internal/obs"
	"allnn/internal/wire"
)

// TestServedReportParity pins the tentpole acceptance criterion: the
// engine Stats inside a remote WantReport join are byte-identical to a
// direct ann library call with the same parameters — and, because
// engine counters carry a serial/parallel parity guarantee, identical
// to both a serial and a parallel direct run. The rows of a join sent
// through the options entry point, with zero options or with the trace
// fields set, are the direct call's rows byte for byte.
func TestServedReportParity(t *testing.T) {
	rPts := randomPoints(201, 600, 2)
	sPts := randomPoints(202, 700, 2)
	rix := buildIndex(t, rPts, ann.MBRQT)
	six := buildIndex(t, sPts, ann.RStar)
	srv, cl, _ := startServer(t, Config{Metrics: obs.NewRegistry()})
	if err := srv.Catalog().Add("r", rix); err != nil {
		t.Fatal(err)
	}
	if err := srv.Catalog().Add("s", six); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The node-cache hit/miss split depends on cache state and worker
	// layout; only the total lookup count is parity-invariant. Fold the
	// split into one number, the same normalisation the engine's own
	// parity tests apply.
	normalize := func(s core.Stats) core.Stats {
		s.NodeCacheHits += s.NodeCacheMisses
		s.NodeCacheMisses = 0
		return s
	}
	direct := func(par int, self bool) ([]ann.Result, core.Stats) {
		t.Helper()
		var rep ann.QueryReport
		cfg := ann.QueryConfig{Parallelism: par,
			OnReport: func(r ann.QueryReport) { rep = r }}
		s := six
		if self {
			s = rix
		}
		rows, err := ann.JoinAll(context.Background(), rix, s, 3, self, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows, normalize(rep.Engine)
	}

	for _, tc := range []struct {
		name string
		self bool
	}{{"join", false}, {"self-join", true}} {
		wantRows, wantSerial := direct(1, tc.self)
		_, wantParallel := direct(4, tc.self)
		if wantSerial != wantParallel {
			t.Fatalf("%s: engine stats lost serial/parallel parity:\nserial   %+v\nparallel %+v",
				tc.name, wantSerial, wantParallel)
		}
		join := func(opts client.JoinOptions) *client.JoinStream {
			t.Helper()
			var st *client.JoinStream
			var err error
			if tc.self {
				st, err = cl.SelfJoinWith(ctx, "r", 3, opts)
			} else {
				st, err = cl.JoinWith(ctx, "r", "s", 3, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			return st
		}

		if got := collectJoin(t, join(client.JoinOptions{})); !reflect.DeepEqual(got, wantRows) {
			t.Errorf("%s: served join with zero options diverges from the direct call", tc.name)
		}

		opts := client.JoinOptions{WantReport: true, TraceID: "parity-" + tc.name}
		st := join(opts)
		results := collectJoin(t, st)
		if !reflect.DeepEqual(results, wantRows) {
			t.Errorf("%s: served WantReport join rows diverge from the direct call", tc.name)
		}
		rep := st.Report()
		if rep == nil {
			t.Fatalf("%s: WantReport join returned no report", tc.name)
		}
		if normalize(rep.Engine) != wantSerial {
			t.Errorf("%s: served report engine stats diverge from direct call:\nserved %+v\ndirect %+v",
				tc.name, normalize(rep.Engine), wantSerial)
		}
		if rep.Engine.Results != uint64(len(results)) {
			t.Errorf("%s: report says %d results, stream delivered %d",
				tc.name, rep.Engine.Results, len(results))
		}
		if rep.TraceID != opts.TraceID {
			t.Errorf("%s: report trace id %q, want %q", tc.name, rep.TraceID, opts.TraceID)
		}
		// Service-side costs only the server can measure.
		if rep.EngineTime <= 0 {
			t.Errorf("%s: report engine time %v, want > 0", tc.name, rep.EngineTime)
		}
		if rep.Timings.Wall <= 0 {
			t.Errorf("%s: report wall time %v, want > 0", tc.name, rep.Timings.Wall)
		}
		if rep.BytesIn == 0 || rep.BytesOut == 0 {
			t.Errorf("%s: report bytes in/out = %d/%d, want both nonzero",
				tc.name, rep.BytesIn, rep.BytesOut)
		}
	}
}

// TestReportVersionGate pins backward compatibility of the header
// extension: requests without the new fields are served unchanged with
// a bare StreamEnd, and WantReport is rejected outside joins.
func TestReportVersionGate(t *testing.T) {
	pts := randomPoints(203, 400, 2)
	ix := buildIndex(t, pts, ann.MBRQT)
	srv, cl, addr := startServer(t, Config{})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	want, err := ann.JoinAll(context.Background(), ix, ix, 2, true, ann.QueryConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// A plain join (the frame a pre-extension client sends, byte for
	// byte) is served identically and its end frame carries no report.
	st, err := cl.SelfJoin(ctx, "pts", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectJoin(t, st); !reflect.DeepEqual(got, want) {
		t.Fatal("plain join diverges with the trace extension deployed")
	}
	if st.Report() != nil {
		t.Error("plain join came back with an unsolicited report")
	}

	// WantReport on a non-join op is malformed. The typed client cannot
	// express it, so probe with a raw wire frame.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.EncodeRequest(
		wire.RequestHeader{ID: 1, Op: wire.OpKNN, WantReport: true, TraceID: "vg"},
		&wire.KNNReq{Index: "pts", K: 1, Point: []float64{1, 2}}, nil)
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
	if kind != wire.KindError || body.(*wire.ErrorReply).Code != wire.CodeBadRequest {
		t.Errorf("WantReport on %s: got kind %d body %+v, want BAD_REQUEST", wire.OpKNN, kind, body)
	}

	srv.Catalog().RequireNoPinnedFrames(t)
}

// TestAdmissionMetrics pins the gauge and typed-counter surface of the
// admission controller: queue-depth and in-flight gauges rise while a
// burst saturates the server and fall back to zero after, and a
// SERVER_BUSY rejection increments its per-code error counter. Run
// with -race.
func TestAdmissionMetrics(t *testing.T) {
	pts := randomPoints(204, 50, 2)
	reg := obs.NewRegistry()
	srv, cl, _ := startServer(t, Config{MaxInFlight: 1, MaxQueue: 1, Metrics: reg})
	if err := srv.Catalog().Add("pts", buildIndex(t, pts, ann.MBRQT)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Saturate: occupy the only execution slot, then the only queue seat.
	if err := srv.admit.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	queuedCtx, cancelQueued := context.WithCancel(ctx)
	queued := make(chan error, 1)
	go func() { queued <- srv.admit.acquire(queuedCtx) }()
	for srv.admit.queueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}

	snap := reg.Snapshot()
	if snap.Gauges["server.inflight"] != 1 {
		t.Errorf("saturated server.inflight = %d, want 1", snap.Gauges["server.inflight"])
	}
	if snap.Gauges["server.queue_depth"] != 1 {
		t.Errorf("saturated server.queue_depth = %d, want 1", snap.Gauges["server.queue_depth"])
	}

	// Over capacity: the next query bounces with SERVER_BUSY and the
	// typed per-code counter records it.
	busyBefore := snap.Counters["server.errors.server_busy"]
	if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 1); !client.IsBusy(err) {
		t.Fatalf("over-capacity query: got %v, want SERVER_BUSY", err)
	}
	// The server counts a failed request after its reply is flushed, so
	// the rejection may not be counted yet when the client sees it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		snap = reg.Snapshot()
		counted := snap.Counters["server.errors.server_busy"] > busyBefore && snap.Counters["server.rejected"] > 0
		if counted || time.Now().After(deadline) {
			break
		}
	}
	if got := snap.Counters["server.errors.server_busy"]; got != busyBefore+1 {
		t.Errorf("server.errors.server_busy = %d, want %d", got, busyBefore+1)
	}
	if snap.Counters["server.rejected"] == 0 {
		t.Error("server.rejected did not count the SERVER_BUSY rejection")
	}

	// Drain the synthetic load: the queued waiter takes the slot, then
	// both release. Gauges fall back to zero.
	cancelQueued()
	if err := <-queued; err == nil {
		// The waiter won the slot before cancellation; release it.
		srv.admit.release()
	}
	srv.admit.release()
	deadline := time.Now().Add(5 * time.Second)
	for srv.admit.inFlight() != 0 || srv.admit.queueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission gauges did not return to zero")
		}
		time.Sleep(time.Millisecond)
	}
	snap = reg.Snapshot()
	if snap.Gauges["server.inflight"] != 0 || snap.Gauges["server.queue_depth"] != 0 {
		t.Errorf("idle gauges inflight=%d queue_depth=%d, want 0/0",
			snap.Gauges["server.inflight"], snap.Gauges["server.queue_depth"])
	}

	// The server still works at full health.
	if _, err := cl.KNN(ctx, "pts", ann.Point{1, 2}, 1); err != nil {
		t.Fatalf("query after burst: %v", err)
	}
}

// logSink collects structured log lines behind a mutex for concurrent
// assertion.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

func (l *logSink) find(substrs ...string) string {
outer:
	for _, line := range l.all() {
		for _, sub := range substrs {
			if !strings.Contains(line, sub) {
				continue outer
			}
		}
		return line
	}
	return ""
}

// syncBuffer is a mutex-guarded line buffer usable as Config.AccessLog
// while the test reads it concurrently.
type syncBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.lines = append(b.lines, strings.TrimSuffix(string(p), "\n"))
	b.mu.Unlock()
	return len(p), nil
}

func (b *syncBuffer) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.lines...)
}

// TestPanicRecoveryLogsRequestIdentity pins the satellite contract for
// the leveled logger: a handler panic produces one structured error
// line carrying the request and trace IDs, the client sees INTERNAL,
// and the connection keeps serving.
func TestPanicRecoveryLogsRequestIdentity(t *testing.T) {
	pts := randomPoints(205, 100, 2)
	sink := &logSink{}
	// The hook must be in place before the listener starts: connection
	// goroutines read it without synchronisation.
	srv := New(Config{Logf: sink.logf})
	var panicked bool
	srv.testHook = func(hdr wire.RequestHeader) {
		if hdr.Op == wire.OpJoin && !panicked {
			panicked = true
			panic("injected handler panic")
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		srv.Catalog().CloseAll()
	})
	if err := srv.Catalog().Add("pts", buildIndex(t, pts, ann.MBRQT)); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ctx := context.Background()

	st, err := cl.SelfJoinWith(ctx, "pts", 1, client.JoinOptions{TraceID: "panic-trace-7"})
	if err != nil {
		t.Fatal(err)
	}
	for st.Next() {
	}
	err = st.Err()
	if !wire.IsCode(err, wire.CodeInternal) {
		t.Fatalf("panicking join: got %v, want INTERNAL", err)
	}

	line := sink.find(`msg="request panic"`, "trace=panic-trace-7", "level=error")
	if line == "" {
		t.Fatalf("no panic log line with trace id; got lines:\n%s", strings.Join(sink.all(), "\n"))
	}
	if !strings.Contains(line, "req=") || !strings.Contains(line, "op=join") {
		t.Errorf("panic log line missing request identity: %q", line)
	}

	// The connection survived the panic and serves the same join fine.
	st, err = cl.SelfJoin(ctx, "pts", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := collectJoin(t, st); len(got) != len(pts) {
		t.Fatalf("join after panic returned %d results, want %d", len(got), len(pts))
	}
}

// TestDebugEndpointsUnderLoad drives a concurrent traced workload and
// checks the whole inspection surface: /debug/requests shows live
// entries while a request is provably in flight, /debug/slow captures
// every over-threshold request with its trace ID, the access log gets
// one JSONL record per request, and per-op quantiles appear in both the
// JSON snapshot and the Prometheus exposition.
func TestDebugEndpointsUnderLoad(t *testing.T) {
	pts := randomPoints(206, 500, 2)
	reg := obs.NewRegistry()
	sink := &logSink{}
	access := &syncBuffer{}
	srv, cl, addr := startServer(t, Config{
		MaxInFlight:   1,
		MaxQueue:      1 << 16,
		Metrics:       reg,
		Logf:          sink.logf,
		LogLevel:      LevelWarn,
		SlowThreshold: time.Nanosecond, // every request is slow
		SlowLogSize:   1024,
		AccessLog:     access,
	})
	if err := srv.Catalog().Add("pts", buildIndex(t, pts, ann.MBRQT)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	web := httptest.NewServer(obs.Mux(reg, srv.DebugRoutes()...))
	defer web.Close()

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(web.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decoding %s: %v", path, err)
		}
	}

	// Phase 1: live inspection. Occupy the single execution slot so a
	// traced join is deterministically parked in the queued stage, then
	// scrape /debug/requests.
	if err := srv.admit.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	liveDone := make(chan error, 1)
	go func() {
		cl2, err := client.Dial(addr)
		if err != nil {
			liveDone <- err
			return
		}
		defer cl2.Close()
		st, err := cl2.SelfJoinWith(ctx, "pts", 1, client.JoinOptions{TraceID: "live-join"})
		if err != nil {
			liveDone <- err
			return
		}
		for st.Next() {
		}
		liveDone <- st.Err()
	}()

	var live struct {
		Count    int               `json:"count"`
		Requests []InFlightRequest `json:"requests"`
	}
	deadline := time.Now().Add(10 * time.Second)
	found := false
	for !found {
		if time.Now().After(deadline) {
			t.Fatal("traced join never appeared in /debug/requests")
		}
		getJSON("/debug/requests", &live)
		for _, r := range live.Requests {
			if r.TraceID == "live-join" && r.Op == "join" && r.Stage == "queued" {
				if r.ElapsedNs <= 0 {
					t.Errorf("live entry has elapsed %d, want > 0", r.ElapsedNs)
				}
				found = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	srv.admit.release()
	if err := <-liveDone; err != nil {
		t.Fatalf("live join: %v", err)
	}

	// Phase 2: concurrent traced workload.
	const workers = 8
	const itersPer = 3
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wcl, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer wcl.Close()
			for it := 0; it < itersPer; it++ {
				tid := fmt.Sprintf("load-%d-%d", g, it)
				st, err := wcl.SelfJoinWith(ctx, "pts", 1,
					client.JoinOptions{TraceID: tid, WantReport: true})
				if err != nil {
					errc <- fmt.Errorf("g%d: %w", g, err)
					return
				}
				for st.Next() {
				}
				if err := st.Err(); err != nil {
					errc <- fmt.Errorf("g%d stream: %w", g, err)
					return
				}
				if rep := st.Report(); rep == nil || rep.TraceID != tid {
					errc <- fmt.Errorf("g%d: report missing or mislabeled: %+v", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The client sees StreamEnd before the server's deferred
	// finishRequest runs, so wait for the access log (the last
	// finishRequest step) to catch up before asserting.
	wantSlow := uint64(1 + workers*itersPer) // live join + workload
	deadline = time.Now().Add(10 * time.Second)
	for uint64(len(access.snapshot())) < wantSlow {
		if time.Now().After(deadline) {
			t.Fatalf("access log has %d records, want %d", len(access.snapshot()), wantSlow)
		}
		time.Sleep(time.Millisecond)
	}

	// /debug/slow captured every request (threshold 1ns) with its trace.
	var slow struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Total       uint64      `json:"total"`
		Entries     []SlowQuery `json:"entries"`
	}
	getJSON("/debug/slow", &slow)
	if slow.ThresholdNs != 1 {
		t.Errorf("slow threshold = %d, want 1", slow.ThresholdNs)
	}
	if slow.Total != wantSlow {
		t.Errorf("slow log total = %d, want %d", slow.Total, wantSlow)
	}
	seen := make(map[string]bool)
	for _, e := range slow.Entries {
		seen[e.TraceID] = true
		if e.LatencyNs <= 0 || e.Op != "join" {
			t.Errorf("slow entry malformed: %+v", e)
		}
	}
	for g := 0; g < workers; g++ {
		for it := 0; it < itersPer; it++ {
			if tid := fmt.Sprintf("load-%d-%d", g, it); !seen[tid] {
				t.Errorf("slow log missing trace %s", tid)
			}
		}
	}
	if !seen["live-join"] {
		t.Error("slow log missing the live-phase join")
	}
	// Every slow request was also logged at warn level with its trace.
	if line := sink.find(`msg="slow query"`, "trace=load-0-0"); line == "" {
		t.Error("no warn-level slow-query log line for trace load-0-0")
	}

	// The access log holds one parseable JSONL record per request.
	accessLines := access.snapshot()
	if uint64(len(accessLines)) != wantSlow {
		t.Errorf("access log has %d records, want %d", len(accessLines), wantSlow)
	}
	for _, line := range accessLines {
		var rec SlowQuery
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad access log line %q: %v", line, err)
		}
	}

	// Per-op quantiles in the JSON snapshot…
	snap := reg.Snapshot()
	joinHist, ok := snap.Histograms["server.join.latency_ns"]
	if !ok {
		t.Fatal("server.join.latency_ns histogram missing from snapshot")
	}
	if joinHist.Count != uint64(wantSlow) {
		t.Errorf("join latency histogram count = %d, want %d", joinHist.Count, wantSlow)
	}
	if joinHist.P50 <= 0 || joinHist.P95 < joinHist.P50 || joinHist.P99 < joinHist.P95 {
		t.Errorf("join latency quantiles not monotone: p50=%v p95=%v p99=%v",
			joinHist.P50, joinHist.P95, joinHist.P99)
	}
	// …the per-op×per-index family…
	if _, ok := snap.Histograms["server.join.pts.latency_ns"]; !ok {
		t.Error("per-op×per-index histogram server.join.pts.latency_ns missing")
	}
	// …and the Prometheus exposition.
	resp, err := http.Get(web.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	promBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	promText := string(promBytes)
	for _, want := range []string{
		"server_join_latency_ns_p50",
		"server_join_latency_ns_p99",
		"server_join_latency_ns_bucket",
		"server_join_pts_latency_ns_count",
		"server_inflight",
		"server_requests",
	} {
		if !strings.Contains(promText, want) {
			t.Errorf("prometheus exposition missing %s", want)
		}
	}

	_ = cl // the startServer client stays idle in this test
	srv.Catalog().RequireNoPinnedFrames(t)
}
