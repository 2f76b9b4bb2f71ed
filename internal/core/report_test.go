package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"allnn/internal/obs"
)

// TestStatsParitySerialVsParallel4 pins the observability contract that
// Stats counters are a pure function of the query, not of its schedule:
// a Parallelism=4 run must report the exact same Stats struct as the
// serial engine. The node cache is disabled because its hit/miss split
// (though not the sum) depends on which worker decodes a node first. The
// terminal cuts of an exact query are counted too: PrunedSubtrees is not
// a dead counter.
func TestStatsParitySerialVsParallel4(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := clusteredPoints(rng, 1200, 2, 100)
	tree := buildMBRQT(t, pts)
	for _, k := range []int{1, 5} {
		serial := Options{K: k, ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled}
		_, wantStats := collectWith(t, tree, tree, serial)
		if wantStats.PrunedSubtrees == 0 {
			t.Errorf("k=%d: exact run recorded no terminal-cut subtree discards", k)
		}
		par := serial
		par.Parallelism = 4
		_, gotStats := collectWith(t, tree, tree, par)
		if gotStats != wantStats {
			t.Fatalf("k=%d: parallel stats differ from serial\n got %+v\nwant %+v", k, gotStats, wantStats)
		}
	}
}

// TestRunReportRegistryParity: after a single-query run, the registry's
// snapshot must agree with the returned QueryReport on every engine, pool
// and cache metric — the acceptance check behind -metrics-addr.
func TestRunReportRegistryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rPts := clusteredPoints(rng, 800, 2, 100)
	sPts := uniformPoints(rng, 600, 2, 100)
	ir, is := buildMBRQT(t, rPts), buildMBRQT(t, sPts)
	for _, p := range distinctPools(ir, is) {
		p.ResetStats() // drop build-time I/O so cumulative == per-run delta
	}

	reg := obs.NewRegistry()
	opts := Options{Registry: reg}
	rep, err := RunReportContext(context.Background(), ir, is, opts, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine.Results != uint64(len(rPts)) {
		t.Fatalf("results = %d, want %d", rep.Engine.Results, len(rPts))
	}

	s := reg.Snapshot()
	wantCounters := map[string]uint64{
		"engine.distance_calcs":    rep.Engine.DistanceCalcs,
		"engine.lpqs_created":      rep.Engine.LPQsCreated,
		"engine.enqueued":          rep.Engine.Enqueued,
		"engine.pruned_on_probe":   rep.Engine.PrunedOnProbe,
		"engine.pruned_by_filter":  rep.Engine.PrunedByFilter,
		"engine.nodes_expanded_r":  rep.Engine.NodesExpandedR,
		"engine.nodes_expanded_s":  rep.Engine.NodesExpandedS,
		"engine.results":           rep.Engine.Results,
		"engine.node_cache_hits":   rep.Engine.NodeCacheHits,
		"engine.node_cache_misses": rep.Engine.NodeCacheMisses,
		"pool.hits":                rep.Pool.Hits,
		"pool.misses":              rep.Pool.Misses,
		"pool.reads":               rep.Pool.Reads,
		"pool.writes":              rep.Pool.Writes,
		"pool.evictions":           rep.Pool.Evictions,
		"cache.hits":               rep.Cache.Hits,
		"cache.misses":             rep.Cache.Misses,
		"cache.evictions":          rep.Cache.Evictions,
		"cache.invalidations":      rep.Cache.Invalidations,
	}
	for name, want := range wantCounters {
		got, ok := s.Counters[name]
		if !ok {
			t.Errorf("registry is missing %q", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %d, registry says %d", name, want, got)
		}
	}
	if got := s.Gauges["cache.bytes"]; got != rep.CacheResidency.Bytes {
		t.Errorf("cache.bytes gauge = %d, report says %d", got, rep.CacheResidency.Bytes)
	}
	if got := s.Gauges["cache.entries"]; got != int64(rep.CacheResidency.Entries) {
		t.Errorf("cache.entries gauge = %d, report says %d", got, rep.CacheResidency.Entries)
	}
	h := s.Histograms["engine.query_nanos"]
	if h.Count != 1 {
		t.Errorf("engine.query_nanos observed %d queries, want 1", h.Count)
	}

	// The QueryReport must survive its own wire format.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine != rep.Engine || back.Timings != rep.Timings {
		t.Fatalf("QueryReport JSON round-trip changed it:\n got %+v\nwant %+v", back, rep)
	}
}

// TestRunReportTimings checks the stage-clock structure the DESIGN.md
// overhead contract promises: Wall covers the query, the main-goroutine
// phases partition it, and the serial three-stage clocks fit inside
// Traverse (they are disjoint sub-intervals of it).
func TestRunReportTimings(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := clusteredPoints(rng, 1000, 2, 100)
	tree := buildMBRQT(t, pts)

	rep, err := RunReportContext(context.Background(), tree, tree, Options{ExcludeSelf: true}, func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	tm := rep.Timings
	if tm.Wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", tm.Wall)
	}
	if sum := tm.Setup + tm.Seed + tm.Traverse; sum > tm.Wall+time.Millisecond {
		t.Fatalf("Setup+Seed+Traverse = %v exceeds Wall = %v", sum, tm.Wall)
	}
	if tm.Traverse <= 0 {
		t.Fatalf("Traverse = %v, want > 0", tm.Traverse)
	}
	if stages := tm.Expand + tm.Filter + tm.Gather; stages <= 0 || stages > tm.Traverse+time.Millisecond {
		t.Fatalf("stage clocks %v (expand %v, filter %v, gather %v) do not fit Traverse %v",
			stages, tm.Expand, tm.Filter, tm.Gather, tm.Traverse)
	}

	// Parallel runs sum the stage clocks over workers; the structure that
	// must hold is main-phase partitioning, plus Frontier being counted.
	prep, err := RunReportContext(context.Background(), tree, tree,
		Options{ExcludeSelf: true, Parallelism: 4, OrderedEmit: true},
		func(Result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	ptm := prep.Timings
	if ptm.Wall <= 0 || ptm.Frontier <= 0 {
		t.Fatalf("parallel timings missing Wall/Frontier: %+v", ptm)
	}
	if ptm.Expand+ptm.Filter+ptm.Gather <= 0 {
		t.Fatalf("parallel stage clocks all zero: %+v", ptm)
	}
}

// coreTraceDoc decodes the Chrome trace-event JSON in tests.
type coreTraceDoc struct {
	TraceEvents []struct {
		Name string   `json:"name"`
		Ph   string   `json:"ph"`
		Ts   float64  `json:"ts"`
		Dur  *float64 `json:"dur"`
		Tid  int64    `json:"tid"`
	} `json:"traceEvents"`
}

// TestTraceSpanNesting runs a traced serial query and checks the span
// taxonomy: setup+seed+traverse cover (almost) all of the query span,
// and every filter span lies inside an expand span on the same lane.
func TestTraceSpanNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := clusteredPoints(rng, 1000, 2, 100)
	tree := buildMBRQT(t, pts)

	tr := obs.NewTracer()
	if _, _, err := CollectContext(context.Background(), tree, tree, Options{ExcludeSelf: true, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc coreTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	type span struct{ ts, end float64 }
	var query *span
	phases := map[string]span{}
	var expands, filters []span
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur == nil {
			continue
		}
		s := span{e.Ts, e.Ts + *e.Dur}
		switch e.Name {
		case "query":
			q := s
			query = &q
		case "setup", "seed", "traverse":
			phases[e.Name] = s
		case "expand":
			expands = append(expands, s)
		case "filter":
			filters = append(filters, s)
		}
	}
	if query == nil {
		t.Fatal("no query span in trace")
	}
	if len(phases) != 3 {
		t.Fatalf("got phases %v, want setup+seed+traverse", phases)
	}
	var covered float64
	for name, p := range phases {
		if p.ts < query.ts-1 || p.end > query.end+1 {
			t.Fatalf("%s span [%g,%g] outside query [%g,%g]", name, p.ts, p.end, query.ts, query.end)
		}
		covered += p.end - p.ts
	}
	if wall := query.end - query.ts; covered < 0.95*wall {
		t.Fatalf("phase spans cover %.1f%% of the query wall time, want >= 95%%", 100*covered/wall)
	}
	if len(expands) == 0 || len(filters) == 0 {
		t.Fatalf("trace has %d expand and %d filter spans, want both > 0", len(expands), len(filters))
	}
	for _, f := range filters {
		contained := false
		for _, e := range expands {
			if f.ts >= e.ts-0.001 && f.end <= e.end+0.001 {
				contained = true
				break
			}
		}
		if !contained {
			t.Fatalf("filter span [%g,%g] not contained in any expand span", f.ts, f.end)
		}
	}
}

// TestTraceParallelLanes: a traced Parallelism=4 run must put worker and
// subtree spans on per-worker lanes, with each subtree inside its
// worker's lifetime span.
func TestTraceParallelLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := clusteredPoints(rng, 1000, 2, 100)
	tree := buildMBRQT(t, pts)

	tr := obs.NewTracer()
	opts := Options{ExcludeSelf: true, Parallelism: 4, OrderedEmit: true, Tracer: tr}
	if _, _, err := CollectContext(context.Background(), tree, tree, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc coreTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}

	type span struct{ ts, end float64 }
	workers := map[int64]span{}
	subtrees := map[int64][]span{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur == nil {
			continue
		}
		s := span{e.Ts, e.Ts + *e.Dur}
		switch e.Name {
		case "worker":
			workers[e.Tid] = s
		case "subtree":
			subtrees[e.Tid] = append(subtrees[e.Tid], s)
		}
	}
	if len(workers) == 0 {
		t.Fatal("no worker spans in parallel trace")
	}
	total := 0
	for tid, subs := range subtrees {
		w, ok := workers[tid]
		if !ok {
			t.Fatalf("subtree spans on lane %d without a worker span", tid)
		}
		for _, s := range subs {
			if s.ts < w.ts-1 || s.end > w.end+1 {
				t.Fatalf("subtree [%g,%g] outside worker %d lifetime [%g,%g]", s.ts, s.end, tid, w.ts, w.end)
			}
		}
		total += len(subs)
	}
	if total == 0 {
		t.Fatal("no subtree spans in parallel trace")
	}
}
