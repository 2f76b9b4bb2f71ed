package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"allnn/internal/core"
	"allnn/internal/obs"
)

// RunMBAReport is the observability deep-dive: one self-ANN join over the
// TAC surrogate executed through core.RunReportContext, so the full
// unified QueryReport — engine counters, buffer-pool and node-cache
// activity, and the Expand/Filter/Gather stage timing breakdown — is printed for a
// single query instead of the aggregate tables of the paper experiments.
//
// With Config.TracePath set, the run is traced and written as Chrome
// trace-event JSON (open it at https://ui.perfetto.dev). With
// Config.JSONPath set, the QueryReport itself is written as JSON — the
// input to the EXPERIMENTS.md counter-reproduction workflow. With
// Config.Metrics set, the counters are also published there (annbench
// serves that registry at -metrics-addr).
func RunMBAReport(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	pts := tacData(cfg)
	dim := len(pts[0])

	fmt.Fprintf(w, "\nObservability deep-dive: self-ANN on TAC surrogate (%d points, %d-D, MBRQT, k=1, serial)\n",
		len(pts), dim)

	p, err := prepareSelf(KindMBRQT, pts)
	if err != nil {
		return err
	}
	ir, is, _, err := p.open(cfg.PoolBytes)
	if err != nil {
		return err
	}

	opts := core.Options{ExcludeSelf: true, Registry: cfg.Metrics}
	var tracer *obs.Tracer
	if cfg.TracePath != "" {
		tracer = obs.NewTracer()
		opts.Tracer = tracer
	}

	rep, err := core.RunReportContext(context.Background(), ir, is, opts, func(core.Result) error { return nil })
	if err != nil {
		return err
	}
	heartbeat(cfg, "mba: traced run", rep.Timings.Wall, rep.Engine.Results)

	printReport(w, rep)

	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntrace (%d events) written to %s — open at https://ui.perfetto.dev\n",
			tracer.Len(), cfg.TracePath)
	}
	if cfg.JSONPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(cfg.JSONPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "QueryReport JSON written to %s\n", cfg.JSONPath)
	}
	return nil
}

// printReport renders one QueryReport as the counter/timing breakdown
// tables EXPERIMENTS.md documents.
func printReport(w io.Writer, rep core.QueryReport) {
	e := rep.Engine
	fmt.Fprintf(w, "\n%-24s %14s\n", "engine counter", "value")
	for _, row := range []struct {
		name string
		v    uint64
	}{
		{"distance_calcs", e.DistanceCalcs},
		{"lpqs_created", e.LPQsCreated},
		{"enqueued", e.Enqueued},
		{"pruned_on_probe", e.PrunedOnProbe},
		{"pruned_by_filter", e.PrunedByFilter},
		{"nodes_expanded_r", e.NodesExpandedR},
		{"nodes_expanded_s", e.NodesExpandedS},
		{"results", e.Results},
		{"node_cache_hits", e.NodeCacheHits},
		{"node_cache_misses", e.NodeCacheMisses},
	} {
		fmt.Fprintf(w, "%-24s %14d\n", row.name, row.v)
	}
	fmt.Fprintf(w, "\n%-24s %14s\n", "io", "value")
	fmt.Fprintf(w, "%-24s %14d\n", "pool_misses (page I/O)", rep.Pool.Misses)
	fmt.Fprintf(w, "%-24s %14d\n", "pool_hits", rep.Pool.Hits)
	fmt.Fprintf(w, "%-24s %14d\n", "cache_hits", rep.Cache.Hits)
	fmt.Fprintf(w, "%-24s %14d\n", "cache_misses", rep.Cache.Misses)
	fmt.Fprintf(w, "%-24s %14d\n", "cache_resident_bytes", rep.CacheResidency.Bytes)

	tm := rep.Timings
	fmt.Fprintf(w, "\n%-24s %14s %8s\n", "stage", "time", "of wall")
	pct := func(d time.Duration) string {
		if tm.Wall <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(tm.Wall))
	}
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"wall", tm.Wall},
		{"setup", tm.Setup},
		{"seed", tm.Seed},
		{"frontier", tm.Frontier},
		{"traverse", tm.Traverse},
		{"  expand (excl filter)", tm.Expand},
		{"  filter", tm.Filter},
		{"  gather", tm.Gather},
	} {
		fmt.Fprintf(w, "%-24s %14s %8s\n", row.name, fmtDur(row.d), pct(row.d))
	}
}
