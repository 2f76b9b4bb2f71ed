package ann

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
)

// TestQueryObservability drives the public observability surface end to
// end: TraceOut receives parseable Chrome trace-event JSON, OnReport
// receives a QueryReport consistent with the emitted results, and a
// shared MetricsRegistry accumulates the counters across queries.
func TestQueryObservability(t *testing.T) {
	pts := randomPoints(3, 300, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	var reports []QueryReport
	metrics := NewMetricsRegistry()
	cfg := QueryConfig{
		TraceOut: &trace,
		Metrics:  metrics,
		OnReport: func(rep QueryReport) { reports = append(reports, rep) },
	}

	results, err := SelfAllKNearestNeighborsContext(context.Background(), ix, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pts) {
		t.Fatalf("got %d results, want %d", len(results), len(pts))
	}

	if len(reports) != 1 {
		t.Fatalf("OnReport fired %d times, want 1", len(reports))
	}
	rep := reports[0]
	if rep.Engine.Results != uint64(len(pts)) {
		t.Fatalf("report results = %d, want %d", rep.Engine.Results, len(pts))
	}
	if rep.Timings.Wall <= 0 {
		t.Fatalf("report wall time = %v, want > 0", rep.Timings.Wall)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("TraceOut is not valid trace JSON: %v", err)
	}
	sawQuery := false
	for _, e := range doc.TraceEvents {
		if e.Name == "query" && e.Ph == "X" {
			sawQuery = true
		}
	}
	if !sawQuery {
		t.Fatal("trace has no query span")
	}

	// A second run accumulates into the same registry.
	cfg2 := QueryConfig{Metrics: metrics}
	if _, err := SelfAllKNearestNeighborsContext(context.Background(), ix, 1, cfg2); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := metrics.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	var s struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(snap.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Counters["engine.results"], uint64(2*len(pts)); got != want {
		t.Fatalf("engine.results after two runs = %d, want %d", got, want)
	}

	// The registry serves the same snapshot over HTTP.
	srv := httptest.NewServer(metrics.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Counters["engine.results"] != s.Counters["engine.results"] {
		t.Fatalf("served snapshot differs: %d vs %d",
			served.Counters["engine.results"], s.Counters["engine.results"])
	}
}

// TestNilMetricsRegistry: a nil registry is the disabled state and every
// method must still be callable.
func TestNilMetricsRegistry(t *testing.T) {
	var m *MetricsRegistry
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if m.Handler() == nil {
		t.Fatal("nil registry Handler must still serve (an empty snapshot)")
	}
}

// TestQueryReportPoolFileBacked: a query report taken through
// QueryConfig.OnReport must account the page traffic the query caused.
// The join runs over a published snapshot of the index, and the report's
// pool section has to see through it: over a file-backed index whose pool
// is far smaller than the page file, Pool.Reads equals the Index.Stats()
// delta around the join (and is not zero), for both index kinds.
func TestQueryReportPoolFileBacked(t *testing.T) {
	pts := randomPoints(9, 4000, 2)
	for _, kind := range []IndexKind{MBRQT, RStar} {
		ix, err := BuildIndex(pts, IndexConfig{
			Kind:            kind,
			PageFile:        filepath.Join(t.TempDir(), "ix.pages"),
			BufferPoolBytes: 8 * 8192,
		})
		if err != nil {
			t.Fatal(err)
		}
		var rep QueryReport
		cfg := QueryConfig{
			Parallelism:    1,
			NodeCacheBytes: -1, // every expansion goes to the pool
			OnReport:       func(r QueryReport) { rep = r },
		}
		before := ix.Stats()
		if _, err := SelfAllKNearestNeighborsContext(context.Background(), ix, 1, cfg); err != nil {
			t.Fatal(err)
		}
		after := ix.Stats()
		if want := after.PoolReads - before.PoolReads; want == 0 || rep.Pool.Reads != want {
			t.Errorf("%v: report Pool.Reads = %d, Index.Stats() delta = %d (want equal, non-zero)",
				kind, rep.Pool.Reads, want)
		}
		if want := after.PoolMisses - before.PoolMisses; rep.Pool.Misses != want {
			t.Errorf("%v: report Pool.Misses = %d, Index.Stats() delta = %d", kind, rep.Pool.Misses, want)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
