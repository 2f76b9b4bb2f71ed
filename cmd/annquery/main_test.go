package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"allnn/ann"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/server"
)

func writeDataset(t *testing.T, name string, pts []geom.Point) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := datagen.WriteFile(path, pts); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCrossJoin(t *testing.T) {
	r := writeDataset(t, "r.pts", []geom.Point{{0, 0}, {10, 10}})
	s := writeDataset(t, "s.pts", []geom.Point{{1, 1}, {9, 9}, {50, 50}})
	var out, errBuf bytes.Buffer
	if err := run([]string{"-r", r, "-s", s, "-k", "1"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d result lines, want 2: %q", len(lines), out.String())
	}
	// Query 0 at (0,0) must match target 0 at (1,1).
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "0\t0:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected query 0 -> target 0 in output: %q", out.String())
	}
	if !strings.Contains(errBuf.String(), "2 results") {
		t.Fatalf("summary missing: %q", errBuf.String())
	}
}

func TestRunSelfJoinAllIndexesAndMetrics(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {5, 5}, {6, 6}}
	r := writeDataset(t, "r.pts", pts)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-r", r, "-self", "-k", "2"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	// Each line: id + 2 neighbors.
	for _, l := range lines {
		if len(strings.Split(l, "\t")) != 3 {
			t.Fatalf("malformed line %q", l)
		}
	}
}

// TestRunTraceAndReport is the CLI end of the trace smoke: -trace writes
// Chrome trace-event JSON holding the query span, and -report's engine
// result count is the number of rows printed.
func TestRunTraceAndReport(t *testing.T) {
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Point{float64(i % 17), float64(i / 17)}
	}
	r := writeDataset(t, "r.pts", pts)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-r", r, "-self", "-k", "3", "-trace", tracePath, "-report"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v", err)
	}
	query := false
	for _, e := range doc.TraceEvents {
		if e.Name == "query" && e.Ph == "X" && e.Dur != nil {
			query = true
		}
	}
	if !query {
		t.Fatalf("trace has no query span among %d events", len(doc.TraceEvents))
	}

	var rep struct{ Engine struct{ Results uint64 } }
	if err := json.NewDecoder(&errBuf).Decode(&rep); err != nil {
		t.Fatalf("stderr does not open with a JSON report: %v", err)
	}
	rows := strings.Count(out.String(), "\n")
	if rows != len(pts) || rep.Engine.Results != uint64(rows) {
		t.Fatalf("printed %d rows, report counts %d results, want both %d", rows, rep.Engine.Results, len(pts))
	}
}

func TestRunQuiet(t *testing.T) {
	r := writeDataset(t, "r.pts", []geom.Point{{0, 0}, {1, 1}})
	var out, errBuf bytes.Buffer
	if err := run([]string{"-r", r, "-self", "-quiet"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("quiet mode still printed: %q", out.String())
	}
}

// TestRunPagefilePersistAndReopen builds an index through -r-pagefile,
// then reruns from the page file alone and expects identical output.
func TestRunPagefilePersistAndReopen(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {5, 5}, {6, 6}, {2, 3}}
	r := writeDataset(t, "r.pts", pts)
	page := filepath.Join(t.TempDir(), "r.pages")

	var built, errBuf bytes.Buffer
	if err := run([]string{"-r", r, "-r-pagefile", page, "-self", "-k", "2"}, &built, &errBuf); err != nil {
		t.Fatal(err)
	}
	var reopened bytes.Buffer
	if err := run([]string{"-r-pagefile", page, "-self", "-k", "2"}, &reopened, &errBuf); err != nil {
		t.Fatal(err)
	}
	if built.String() != reopened.String() {
		t.Fatalf("reopened page file diverges from build:\nbuilt:    %q\nreopened: %q",
			built.String(), reopened.String())
	}
	if built.Len() == 0 {
		t.Fatal("no output produced")
	}
}

// TestRunCleanErrors pins the one-line (no stack trace) failure mode
// for missing files, garbage page files, and corrupt dataset headers.
func TestRunCleanErrors(t *testing.T) {
	var out, errBuf bytes.Buffer

	// Missing page file.
	err := run([]string{"-r-pagefile", filepath.Join(t.TempDir(), "missing.pages"), "-self"}, &out, &errBuf)
	if err == nil {
		t.Fatal("missing page file accepted")
	}
	assertCleanError(t, err)

	// Garbage page file: must fail the header check, not crash.
	garbage := filepath.Join(t.TempDir(), "garbage.pages")
	if werr := os.WriteFile(garbage, bytes.Repeat([]byte{0xAB}, 16384), 0o644); werr != nil {
		t.Fatal(werr)
	}
	err = run([]string{"-r-pagefile", garbage, "-self"}, &out, &errBuf)
	if err == nil {
		t.Fatal("garbage page file accepted")
	}
	assertCleanError(t, err)

	// Dataset with a corrupt count header (declares far more points than
	// the file holds): clean error, not an allocation panic.
	r := writeDataset(t, "r.pts", []geom.Point{{0, 0}, {1, 1}})
	data, rerr := os.ReadFile(r)
	if rerr != nil {
		t.Fatal(rerr)
	}
	binary.LittleEndian.PutUint64(data[12:], 1<<40)
	if werr := os.WriteFile(r, data, 0o644); werr != nil {
		t.Fatal(werr)
	}
	err = run([]string{"-r", r, "-self"}, &out, &errBuf)
	if err == nil {
		t.Fatal("corrupt dataset header accepted")
	}
	assertCleanError(t, err)
	if !strings.Contains(err.Error(), "declares") {
		t.Fatalf("corrupt-header error should name the bad count: %v", err)
	}
}

func assertCleanError(t *testing.T, err error) {
	t.Helper()
	msg := err.Error()
	if strings.Contains(msg, "\n") || strings.Contains(msg, "goroutine") {
		t.Fatalf("error is not a clean single line: %q", msg)
	}
}

// serve starts an in-process annserve whose catalog holds pts, in
// memory, as "pts", and returns its address.
func serve(t *testing.T, pts []geom.Point) string {
	t.Helper()
	annPts := make([]ann.Point, len(pts))
	for i, p := range pts {
		annPts[i] = ann.Point(p)
	}
	ix, err := ann.BuildIndex(annPts, ann.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	if err := srv.Catalog().Add("pts", ix); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
		srv.Catalog().CloseAll()
	})
	return ln.Addr().String()
}

// TestRunRemote starts an in-process annserve and checks that
// -remote produces byte-identical output to the local path.
func TestRunRemote(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {5, 5}, {6, 6}, {2, 3}, {7, 2}}
	r := writeDataset(t, "r.pts", pts)

	// Local baseline.
	var localOut, errBuf bytes.Buffer
	if err := run([]string{"-r", r, "-self", "-k", "2"}, &localOut, &errBuf); err != nil {
		t.Fatal(err)
	}

	var remoteOut bytes.Buffer
	addr := serve(t, pts)
	if err := run([]string{"-remote", addr, "-r", "pts", "-self", "-k", "2"}, &remoteOut, &errBuf); err != nil {
		t.Fatal(err)
	}
	if remoteOut.String() != localOut.String() {
		t.Fatalf("remote output diverges from local:\nlocal:  %q\nremote: %q",
			localOut.String(), remoteOut.String())
	}

	// Unknown catalog name: clean one-line error.
	err := run([]string{"-remote", addr, "-r", "nope", "-self"}, &remoteOut, &errBuf)
	if err == nil {
		t.Fatal("unknown catalog index accepted")
	}
	assertCleanError(t, err)

	// Remote argument validation.
	if err := run([]string{"-remote", addr, "-self"}, &remoteOut, &errBuf); err == nil {
		t.Error("expected error without -r in remote mode")
	}
	if err := run([]string{"-remote", addr, "-r", "pts"}, &remoteOut, &errBuf); err == nil {
		t.Error("expected error without -s or -self in remote mode")
	}
}

// TestRunRemoteReport pins what `-remote -report` prints to stderr: the
// local -report JSON, key for key down to each section's fields, plus a
// "service" object holding the server-side costs.
func TestRunRemoteReport(t *testing.T) {
	pts := []geom.Point{{0, 0}, {1, 1}, {5, 5}, {6, 6}, {2, 3}, {7, 2}}
	r := writeDataset(t, "r.pts", pts)
	addr := serve(t, pts)

	report := func(args ...string) map[string]map[string]json.RawMessage {
		t.Helper()
		var out, errBuf bytes.Buffer
		if err := run(append(args, "-self", "-k", "2", "-quiet", "-report"), &out, &errBuf); err != nil {
			t.Fatal(err)
		}
		// The report is the first JSON value on stderr; the summary line
		// follows it.
		var rep map[string]map[string]json.RawMessage
		if err := json.NewDecoder(&errBuf).Decode(&rep); err != nil {
			t.Fatalf("%v: stderr does not open with a JSON report: %v", args, err)
		}
		return rep
	}
	keys := func(m map[string]json.RawMessage) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	local := report("-r", r)
	remote := report("-remote", addr, "-r", "pts", "-trace-id", "q-7")
	if len(remote) != len(local)+1 {
		t.Errorf("remote report has %d sections, want the local %d plus service", len(remote), len(local))
	}
	for section, fields := range local {
		if got, want := keys(remote[section]), keys(fields); !reflect.DeepEqual(got, want) {
			t.Errorf("remote %q keys %v, want the local %v", section, got, want)
		}
	}
	service := remote["service"]
	if got, want := keys(service), []string{"admission_wait_ns", "bytes_in", "bytes_out", "engine_ns", "flush_ns", "trace_id"}; !reflect.DeepEqual(got, want) {
		t.Errorf("service keys %v, want %v", got, want)
	}
	if got := string(service["trace_id"]); got != `"q-7"` {
		t.Errorf("service trace_id %s, want \"q-7\"", got)
	}
	if string(local["engine"]["Results"]) != "6" || string(remote["engine"]["Results"]) != "6" {
		t.Errorf("engine Results local %s, remote %s, want 6", local["engine"]["Results"], remote["engine"]["Results"])
	}
}

func TestRunValidation(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{}, &out, &errBuf); err == nil {
		t.Error("expected error without -r")
	}
	r := writeDataset(t, "r.pts", []geom.Point{{0, 0}})
	if err := run([]string{"-r", r}, &out, &errBuf); err == nil {
		t.Error("expected error without -s or -self")
	}
	if err := run([]string{"-r", "/does/not/exist", "-self"}, &out, &errBuf); err == nil {
		t.Error("expected error for missing file")
	}

	// A served query refuses, by name, every flag only a local query can
	// honour, before it writes a file or dials the server; the same query
	// without the flag succeeds.
	addr := serve(t, []geom.Point{{0, 0}, {1, 1}})
	served := []string{"-remote", addr, "-r", "pts", "-self", "-quiet"}
	if err := run(served, &out, &errBuf); err != nil {
		t.Fatalf("served query: %v", err)
	}
	dir := t.TempDir()
	for _, tc := range [][]string{
		{"-r-pagefile", filepath.Join(dir, "r.pages")},
		{"-s-pagefile", filepath.Join(dir, "s.pages")},
		{"-trace", filepath.Join(dir, "trace.json")},
		{"-cpuprofile", filepath.Join(dir, "cpu.pprof")},
		{"-memprofile", filepath.Join(dir, "mem.pprof")},
		{"-pprof-addr", "127.0.0.1:0"},
	} {
		err := run(append(slices.Clip(served), tc...), &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), tc[0]) {
			t.Errorf("%s with -remote: got %v, want an error naming %s", tc[0], err, tc[0])
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused served queries left %d files behind", len(entries))
	}
}
