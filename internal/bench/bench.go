// Package bench is the experiment harness: one runner per table/figure of
// the paper's evaluation section (Section 4). Each experiment builds its
// datasets and indexes, re-opens them through a buffer pool of the
// paper's size (512 KB unless the experiment varies it), executes every
// algorithm configuration, and prints a table with the same rows/series
// the paper reports.
//
// Times: CPU time is measured wall time (the algorithms are
// single-threaded and the in-memory page store adds only copies); I/O
// time is derived as pageTransfers x PageLatency, the way the paper's
// SHORE numbers are dominated by buffer misses under LRU. Absolute values
// differ from the paper's 2007 hardware; the claims under reproduction
// are the relative shapes.
package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"allnn/internal/bnn"
	"allnn/internal/core"
	"allnn/internal/geom"
	"allnn/internal/gorder"
	"allnn/internal/hnn"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/nodecache"
	"allnn/internal/obs"
	"allnn/internal/rstar"
	"allnn/internal/storage"
)

// Config parameterises an experiment run.
type Config struct {
	// Scale multiplies the paper's dataset cardinalities (default 0.05;
	// 1.0 reproduces the full 500K-700K sizes).
	Scale float64
	// PageLatency converts page transfers into I/O time (default 1ms).
	PageLatency time.Duration
	// PoolBytes is the buffer pool size (default 512 KB, the paper's).
	PoolBytes int
	// Seed drives the dataset generators.
	Seed int64
	// Out receives the report (default os.Stdout set by the caller).
	Out io.Writer
	// JSONPath, when non-empty, makes experiments that support it
	// (currently "mba") also write a machine-readable summary there.
	JSONPath string
	// Progress, when non-nil, receives one heartbeat line per completed
	// measurement (elapsed time, result rows, rows/sec), so long runs
	// show liveness without polluting the report on Out. annbench wires
	// os.Stderr here unless -quiet is given.
	Progress io.Writer
	// TracePath, when non-empty, makes experiments that support it
	// (currently "mba") write a Chrome trace-event JSON of their traced
	// run there — open it at https://ui.perfetto.dev.
	TracePath string
	// Metrics, when non-nil, receives the counters of experiments that
	// publish them (currently "mba"); annbench serves it at
	// -pprof-addr.
	Metrics *obs.Registry
}

// Provenance records the runtime context a bench artifact was collected
// under. Committed artifacts carry it so a single-core collection can
// never be mistaken for a multi-core one.
type Provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CollectProvenance samples the current runtime.
func CollectProvenance() Provenance {
	return Provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.PageLatency <= 0 {
		c.PageLatency = time.Millisecond
	}
	if c.PoolBytes <= 0 {
		c.PoolBytes = 512 * 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

// Measurement is the outcome of one algorithm configuration.
type Measurement struct {
	Name    string
	CPU     time.Duration
	IOCount uint64
	IOTime  time.Duration
	Results uint64
}

// Total returns CPU + I/O time.
func (m Measurement) Total() time.Duration { return m.CPU + m.IOTime }

// Experiment is a registered, runnable experiment.
type Experiment struct {
	Name        string
	Description string
	Run         func(Config) error
}

// Experiments lists every table/figure runner in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table2", "Table 2: experimental dataset inventory", RunTable2},
		{"fig3a", "Figure 3(a): ANN on TAC — BNN/RBA/MBA x {MAXMAXDIST, NXNDIST} + GORDER", RunFig3a},
		{"fig3b", "Figure 3(b): ANN on FC (10-D) — MBA vs GORDER across buffer pool sizes", RunFig3b},
		{"fig4", "Figure 4: effect of dimensionality (500K 2D/4D/6D) — MBA vs GORDER", RunFig4},
		{"fig5", "Figure 5: AkNN on TAC, k = 10..50 — MBA vs GORDER", RunFig5},
		{"fig6", "Figure 6: AkNN on FC, k = 10..50 — MBA vs GORDER", RunFig6},
		{"prune", "Section 4.3 support: node-level pruning power, NXNDIST vs MAXMAXDIST on both indexes", RunPruning},
		{"ablate", "Ablations: the default engine vs the paper's algorithm as printed (k = 1, k = 10), index choice, HNN", RunAblations},
		{"mba", "Observability deep-dive: one traced MBA self-join with the unified QueryReport (counters, stage timings; -trace writes Perfetto JSON)", RunMBAReport},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- index preparation -------------------------------------------------------

// IndexKind selects the index structure for prepared experiments.
type IndexKind int

// Index structure choices.
const (
	KindMBRQT IndexKind = iota
	KindRStar
)

// prepared holds flushed indexes in a store, ready to be re-opened
// through an experiment-sized pool (so query-time I/O starts cold but the
// build cost is excluded, as in the paper: indexes are prebuilt).
type prepared struct {
	store storage.Store
	kind  IndexKind
	metaR storage.PageID
	metaS storage.PageID // equal to metaR for self-joins
}

// prepareSelf builds one index over pts and flushes it; self-joins use
// the same tree as both I_R and I_S, exactly like a real deployment.
func prepareSelf(kind IndexKind, pts []geom.Point) (*prepared, error) {
	store := storage.NewMemStore()
	buildPool := storage.NewBufferPool(store, 16384) // generous pool for building only
	meta, err := buildTree(kind, buildPool, pts)
	if err != nil {
		return nil, err
	}
	if err := buildPool.FlushAll(); err != nil {
		return nil, err
	}
	return &prepared{store: store, kind: kind, metaR: meta, metaS: meta}, nil
}

func buildTree(kind IndexKind, pool *storage.BufferPool, pts []geom.Point) (storage.PageID, error) {
	switch kind {
	case KindRStar:
		// Built by repeated insertion, as a SHORE-resident index populated
		// tuple-at-a-time would be: this produces the realistic amount of
		// MBR overlap. (STR bulk loading packs the R*-tree so well that it
		// behaves almost like a regular decomposition, hiding exactly the
		// weakness of R*-trees the paper's MBRQT comparison measures.)
		t, err := rstar.New(pool, len(pts[0]), rstar.Config{})
		if err != nil {
			return 0, err
		}
		for i, p := range pts {
			if err := t.Insert(index.ObjectID(i), p); err != nil {
				return 0, err
			}
		}
		return t.MetaPage(), t.Flush()
	default:
		t, err := mbrqt.BulkLoad(pool, pts, nil, mbrqt.Config{})
		if err != nil {
			return 0, err
		}
		return t.MetaPage(), t.Flush()
	}
}

// open re-opens the prepared indexes through a fresh pool of poolBytes.
func (p *prepared) open(poolBytes int) (ir, is index.Tree, pool *storage.BufferPool, err error) {
	pool = storage.NewBufferPool(p.store, storage.FramesForBytes(poolBytes))
	ir, err = p.openTree(pool, p.metaR)
	if err != nil {
		return nil, nil, nil, err
	}
	if p.metaS == p.metaR {
		return ir, ir, pool, nil
	}
	is, err = p.openTree(pool, p.metaS)
	return ir, is, pool, err
}

func (p *prepared) openTree(pool *storage.BufferPool, meta storage.PageID) (index.Tree, error) {
	if p.kind == KindRStar {
		return rstar.Open(pool, meta)
	}
	return mbrqt.Open(pool, meta)
}

// --- measurement -------------------------------------------------------------

// measure executes fn, reading work done from pool's statistics.
func measure(name string, cfg Config, pool *storage.BufferPool, extraIO uint64, fn func() (uint64, error)) (Measurement, error) {
	runtime.GC()
	pool.ResetStats()
	start := time.Now()
	results, err := fn()
	cpu := time.Since(start)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", name, err)
	}
	heartbeat(cfg, name, cpu, results)
	st := pool.Stats()
	io := st.Reads + st.Writes + extraIO
	return Measurement{
		Name:    name,
		CPU:     cpu,
		IOCount: io,
		IOTime:  time.Duration(io) * cfg.PageLatency,
		Results: results,
	}, nil
}

// heartbeat emits one liveness line per completed measurement to
// cfg.Progress (nil = silent). Long experiments run many configurations
// back to back; the heartbeat shows which one just finished and how fast
// it went without touching the report on cfg.Out.
func heartbeat(cfg Config, name string, wall time.Duration, results uint64) {
	if cfg.Progress == nil {
		return
	}
	rate := "-"
	if wall > 0 {
		rate = fmt.Sprintf("%.0f rows/s", float64(results)/wall.Seconds())
	}
	fmt.Fprintf(cfg.Progress, "[bench] %-32s %10s %12d rows %14s\n", name, fmtDur(wall), results, rate)
}

// runMBA executes the core engine (MBA over MBRQT, RBA over R*-tree)
// against prepared indexes. The decoded-node cache is always disabled
// here: its hits bypass the buffer pool, and the paper experiments
// reproduce I/O counts that assume every expansion reads its page.
func runMBA(name string, cfg Config, p *prepared, opts core.Options) (Measurement, error) {
	opts.NodeCacheBytes = core.NodeCacheDisabled
	ir, is, pool, err := p.open(cfg.PoolBytes)
	if err != nil {
		return Measurement{}, err
	}
	return measure(name, cfg, pool, 0, func() (uint64, error) {
		stats, err := core.RunContext(context.Background(), ir, is, opts, func(core.Result) error { return nil })
		stats.AddTo(cfg.Metrics) // no-op on a nil registry
		return stats.Results, err
	})
}

// DeclareMetricFamilies pre-creates the six stats families in r by
// accumulating zero-valued stats, so a freshly served -pprof-addr
// snapshot lists every stable metric name (DESIGN.md §10) before any
// experiment has produced counts.
func DeclareMetricFamilies(r *obs.Registry) {
	core.Stats{}.AddTo(r)
	storage.Stats{}.AddTo(r, "pool")
	nodecache.Counters{}.AddTo(r, "cache")
	gorder.Stats{}.AddTo(r)
	hnn.Stats{}.AddTo(r)
	bnn.Stats{}.AddTo(r)
}

// scanPages is the number of pages a sequential scan of n dim-dimensional
// points occupies; used to charge the query-side dataset scan of the
// BNN/MNN/GORDER-style algorithms that read R as a flat file.
func scanPages(n, dim int) uint64 {
	perPage := (storage.PageSize - 4) / (8 + 8*dim)
	return uint64((n + perPage - 1) / perPage)
}

// --- reporting ---------------------------------------------------------------

// printTable writes measurements as an aligned table with the paper's
// CPU/I-O split.
func printTable(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-28s %12s %12s %12s %12s %10s\n",
		"configuration", "cpu", "io-time", "total", "page-io", "results")
	for _, m := range ms {
		fmt.Fprintf(w, "%-28s %12s %12s %12s %12d %10d\n",
			m.Name, fmtDur(m.CPU), fmtDur(m.IOTime), fmtDur(m.Total()), m.IOCount, m.Results)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// speedup formats the ratio between two totals.
func speedup(slow, fast Measurement) string {
	if fast.Total() == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(slow.Total())/float64(fast.Total()))
}
