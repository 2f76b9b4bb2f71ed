package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"allnn/internal/bruteforce"
	"allnn/internal/core"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// approxK is the neighbor count of the approximate-mode sweep. k = 10 is
// the low end of the paper's AkNN range (Figures 5-6): enough leaf-join
// work per object that a shrunk k-th bound has something to cut, while
// the brute-force oracle stays affordable.
const approxK = 10

// approxSweep is the ε ladder the experiment measures, from
// "indistinguishable" to "paper-figure coarse". ε = 0 is the exact
// baseline itself.
var approxSweep = []float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}

// RunApprox measures the approximate query mode: a self-AkNN join over
// the FC surrogate, exact first, then up the ε ladder, all serial
// (Parallelism 1) so speedups are per-core algorithmic savings rather
// than scheduling artifacts. The runs execute in the paper's cost model —
// the standard small buffer pool with the decoded-node cache disabled (as
// in the figure experiments), total time derived as CPU + pageTransfers x
// PageLatency. Every run's result stream is scored against the
// brute-force oracle for measured recall and for the worst distance ratio
// (the observed 1+ε), and the run fails — this is all `make
// bench-approx-smoke` gates — unless the ε = 0 row is the exact answer
// with no approximate cut counted and every row keeps its (1+ε) distance
// contract. With Config.JSONPath set, the table is also written as
// machine-readable JSON suitable for committing as BENCH_approx.json.
func RunApprox(cfg Config) error {
	cfg = cfg.withDefaults()
	w := cfg.Out
	prov := CollectProvenance()
	pts := approxData(cfg)
	dim := len(pts[0])
	fmt.Fprintf(w, "\nApproximate mode: self-AkNN on FC surrogate (%d points, %d-D, MBRQT, k=%d, serial)\n",
		len(pts), dim, approxK)
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS=%d, %s; %d KB pool, %s/page modeled I/O (the paper's cost model), node cache off\n",
		prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, cfg.PoolBytes>>10, cfg.PageLatency)

	oracleStart := time.Now()
	oracle := parallelOracle(pts, approxK)
	heartbeat(cfg, "approx: brute-force oracle", time.Since(oracleStart), uint64(len(oracle)))

	p, err := prepareSelf(KindMBRQT, pts)
	if err != nil {
		return err
	}
	ir, is, pool, err := p.open(cfg.PoolBytes)
	if err != nil {
		return err
	}

	base := core.Options{K: approxK, ExcludeSelf: true, Parallelism: 1,
		NodeCacheBytes: core.NodeCacheDisabled}
	// Warm-up: bring the pool to its steady thrashing state so every timed
	// run starts from the same page residency.
	if _, err := timedCollect(ir, is, pool, base); err != nil {
		return err
	}
	exactRes, err := bestOfCollect(ir, is, pool, base)
	if err != nil {
		return err
	}
	exactTotal := exactRes.wall + time.Duration(exactRes.io)*cfg.PageLatency
	heartbeat(cfg, "approx: exact baseline", exactTotal, exactRes.stats.Results)

	type row struct {
		label     string
		eps       float64
		wall      time.Duration
		io        uint64
		total     time.Duration
		stats     core.Stats
		sched     core.SchedStats
		recall    float64
		maxRatio  float64
		identical bool
	}
	var rows []row
	for _, eps := range approxSweep {
		// The ε = 0 row is the baseline measurement itself (Epsilon's zero
		// value is the exact query), so its reported speedup is exactly 1
		// rather than timing noise.
		label, res := "exact (eps=0)", exactRes
		if eps != 0 {
			label = fmt.Sprintf("eps=%g", eps)
			opts := base
			opts.Epsilon = eps
			var err error
			res, err = bestOfCollect(ir, is, pool, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", label, err)
			}
		}
		recall, maxRatio := scoreAgainstOracle(res.results, oracle)
		total := res.wall + time.Duration(res.io)*cfg.PageLatency
		heartbeat(cfg, "approx: "+label, total, res.stats.Results)
		rows = append(rows, row{label, eps, res.wall, res.io, total,
			res.stats, res.sched, recall, maxRatio, res.hash == exactRes.hash})
	}

	fmt.Fprintf(w, "\n%-18s %9s %9s %10s %9s %8s %10s %13s %10s %10s\n",
		"configuration", "cpu", "io-pages", "total", "speedup", "recall", "max-ratio", "dist-calcs", "expand-s", "identical")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %9s %9d %10s %8.2fx %8.4f %10.6f %13d %10d %10v\n",
			r.label, fmtDur(r.wall), r.io, fmtDur(r.total), float64(exactTotal)/float64(r.total),
			r.recall, r.maxRatio, r.stats.DistanceCalcs, r.stats.NodesExpandedS, r.identical)
	}

	// The gate: the ε = 0 row is the exact answer with no approximate cut
	// counted, and no row breaks its (1+ε) distance contract.
	for _, r := range rows {
		if r.eps == 0 {
			if !r.identical {
				return fmt.Errorf("approx: eps=0 run is not byte-identical to the exact baseline")
			}
			if r.recall < 1 {
				return fmt.Errorf("approx: eps=0 run measured recall %.6f, want 1", r.recall)
			}
			if r.stats.LPQEarlyTerms != 0 {
				return fmt.Errorf("approx: eps=0 run recorded %d approx early terminations", r.stats.LPQEarlyTerms)
			}
		}
		if limit := (1 + r.eps) * (1 + 1e-9); r.maxRatio > limit {
			return fmt.Errorf("approx: %s returned a distance %.6fx the true one, breaking the (1+ε) contract",
				r.label, r.maxRatio)
		}
	}

	if cfg.JSONPath != "" {
		type runJSON struct {
			Label           string          `json:"label"`
			Epsilon         float64         `json:"epsilon"`
			CPUNS           int64           `json:"cpu_ns"`
			IOPages         uint64          `json:"io_pages"`
			TotalNS         int64           `json:"total_ns"`
			Total           string          `json:"total"`
			SpeedupVsExact  float64         `json:"speedup_vs_exact"`
			Recall          float64         `json:"recall"`
			MaxDistRatio    float64         `json:"max_dist_ratio"`
			IdenticalOutput bool            `json:"identical_output"`
			Stats           core.Stats      `json:"stats"`
			Sched           core.SchedStats `json:"sched"`
		}
		doc := struct {
			Experiment    string     `json:"experiment"`
			Dataset       string     `json:"dataset"`
			Points        int        `json:"points"`
			Dim           int        `json:"dim"`
			Index         string     `json:"index"`
			K             int        `json:"k"`
			Provenance    Provenance `json:"provenance"`
			PoolBytes     int        `json:"pool_bytes"`
			PageLatencyNS int64      `json:"page_latency_ns"`
			Runs          []runJSON  `json:"runs"`
		}{
			Experiment:    "approx",
			Dataset:       "FC-surrogate",
			Points:        len(pts),
			Dim:           dim,
			Index:         "MBRQT",
			K:             approxK,
			Provenance:    prov,
			PoolBytes:     cfg.PoolBytes,
			PageLatencyNS: cfg.PageLatency.Nanoseconds(),
		}
		for _, r := range rows {
			doc.Runs = append(doc.Runs, runJSON{
				Label:           r.label,
				Epsilon:         r.eps,
				CPUNS:           r.wall.Nanoseconds(),
				IOPages:         r.io,
				TotalNS:         r.total.Nanoseconds(),
				Total:           r.total.Round(time.Microsecond).String(),
				SpeedupVsExact:  float64(exactTotal) / float64(r.total),
				Recall:          r.recall,
				MaxDistRatio:    r.maxRatio,
				IdenticalOutput: r.identical,
				Stats:           r.stats,
				Sched:           r.sched,
			})
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(cfg.JSONPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nJSON summary written to %s\n", cfg.JSONPath)
	}

	return nil
}

// approxData is the sweep's dataset: the FC surrogate (10-D, correlated)
// at the TAC cardinality (35K points at the default scale). 10-D is where
// a shrunk k-th bound has the most to cut: the blocked kernel abandons a
// pair as soon as its partial sum crosses the bound, and in 2-D there is
// no partial sum to speak of.
func approxData(cfg Config) []geom.Point {
	return datagen.FCSurrogate(cfg.Seed, cfg.scaled(700_000))
}

// approxRepeats is how many times each configuration is timed; the
// minimum CPU wall time is reported. The runs are deterministic
// (identical output, counters and page-transfer counts every repeat once
// the pool has warmed), so the minimum isolates algorithmic cost from
// scheduling noise — on the shared single-CPU collection hosts a single
// run's wall time can swing by ±20%.
const approxRepeats = 3

// collectRun is one measured configuration: CPU wall time, buffer-pool
// page transfers (reads + writes), the engine counters, the output hash
// and the captured result stream.
type collectRun struct {
	wall    time.Duration
	io      uint64
	stats   core.Stats
	sched   core.SchedStats
	hash    uint64
	results []core.Result
}

// bestOfCollect runs timedCollect approxRepeats times and keeps the
// fastest wall time alongside the (repeat-invariant) outputs. The page
// count is taken from the later repeats, which start from the pool
// residency the previous identical run left behind — the steady state a
// served workload would see.
func bestOfCollect(ir, is index.Tree, pool *storage.BufferPool, opts core.Options) (collectRun, error) {
	run, err := timedCollect(ir, is, pool, opts)
	if err != nil {
		return collectRun{}, err
	}
	for i := 1; i < approxRepeats; i++ {
		next, err := timedCollect(ir, is, pool, opts)
		if err != nil {
			return collectRun{}, err
		}
		if next.wall < run.wall {
			run.wall = next.wall
		}
		run.io = next.io
	}
	return run, nil
}

// timedCollect is timedRun plus result capture, so a run can be both
// hash-compared against the baseline and scored against the oracle. The
// pool's transfer counters are reset per run; reads and writes both
// count as page transfers, the way Measurement does for the paper's
// figure experiments.
func timedCollect(ir, is index.Tree, pool *storage.BufferPool, opts core.Options) (collectRun, error) {
	h := fnv.New64a()
	var word [8]byte
	write := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	var run collectRun
	opts.Sched = &run.sched
	pool.ResetStats()
	start := time.Now()
	stats, err := core.Run(ir, is, opts, func(r core.Result) error {
		write(r.ID)
		for _, n := range r.Neighbors {
			write(n.ID)
			write(math.Float64bits(n.Dist))
		}
		run.results = append(run.results, r)
		return nil
	})
	run.wall = time.Since(start)
	if err != nil {
		return collectRun{}, err
	}
	st := pool.Stats()
	run.io = st.Reads + st.Writes
	run.stats = stats
	run.hash = h.Sum64()
	return run, nil
}

// parallelOracle computes the brute-force self-AkNN ground truth with one
// goroutine per CPU over disjoint query chunks. The oracle is reference
// scoring, not a measured configuration, so parallelising it is free.
func parallelOracle(pts []geom.Point, k int) []bruteforce.Result {
	s := bruteforce.FromPoints(pts)
	out := make([]bruteforce.Result, len(pts))
	workers := runtime.GOMAXPROCS(0)
	chunk := (len(pts) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(pts); lo += chunk {
		hi := lo + chunk
		if hi > len(pts) {
			hi = len(pts)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			r := bruteforce.Dataset{IDs: s.IDs[lo:hi], Points: s.Points[lo:hi]}
			copy(out[lo:], bruteforce.AkNN(r, s, k, true))
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// scoreAgainstOracle computes distance-based recall (a neighbor at rank n
// counts when its distance is within float tolerance of the true rank-n
// distance — tie-insensitive) and the worst returned/true distance ratio
// across all ranks (the observed ε + 1).
func scoreAgainstOracle(results []core.Result, oracle []bruteforce.Result) (recall, maxRatio float64) {
	byObject := make([]*core.Result, len(oracle))
	for i := range results {
		byObject[results[i].ID] = &results[i]
	}
	hits, total := 0, 0
	maxRatio = 1
	for i := range oracle {
		got := byObject[oracle[i].Object]
		for n := range oracle[i].Neighbors {
			total++
			if got == nil || n >= len(got.Neighbors) {
				continue
			}
			want := oracle[i].Neighbors[n].Dist
			if got.Neighbors[n].Dist <= want*(1+1e-9) {
				hits++
			}
			if want > 0 {
				if ratio := got.Neighbors[n].Dist / want; ratio > maxRatio {
					maxRatio = ratio
				}
			}
		}
	}
	if total == 0 {
		return 1, maxRatio
	}
	return float64(hits) / float64(total), maxRatio
}
