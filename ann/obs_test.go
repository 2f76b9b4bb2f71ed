package ann

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestQueryObservability drives the public observability surface end to
// end: TraceOut receives parseable Chrome trace-event JSON, and OnReport
// receives a QueryReport consistent with the emitted results.
func TestQueryObservability(t *testing.T) {
	pts := randomPoints(3, 300, 2)
	ix, err := BuildIndex(pts, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	var reports []QueryReport
	cfg := QueryConfig{
		TraceOut: &trace,
		OnReport: func(rep QueryReport) { reports = append(reports, rep) },
	}

	results, err := JoinAll(context.Background(), ix, ix, 1, true, cfg)
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
}

// TestQueryReportPoolFileBacked: a query report taken through
// QueryConfig.OnReport must account the page traffic the query caused.
// The join runs over a published snapshot of the index, and the report's
// pool section has to see through it: over a file-backed index whose pool
// is far smaller than the page file, Pool.Reads equals the Index.Stats()
// delta around the join (and is not zero).
func TestQueryReportPoolFileBacked(t *testing.T) {
	pts := randomPoints(9, 4000, 2)
	ix, err := BuildIndex(pts, IndexConfig{
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
	if _, err := JoinAll(context.Background(), ix, ix, 1, true, cfg); err != nil {
		t.Fatal(err)
	}
	after := ix.Stats()
	if want := after.PoolReads - before.PoolReads; want == 0 || rep.Pool.Reads != want {
		t.Errorf("report Pool.Reads = %d, Index.Stats() delta = %d (want equal, non-zero)", rep.Pool.Reads, want)
	}
	if want := after.PoolMisses - before.PoolMisses; rep.Pool.Misses != want {
		t.Errorf("report Pool.Misses = %d, Index.Stats() delta = %d", rep.Pool.Misses, want)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}
