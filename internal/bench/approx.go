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
// the low end of the paper's AkNN range (Figures 5-6): enough gather
// work per LPQ that ε-inflated pruning has something to cut, while the
// brute-force oracle stays affordable.
const approxK = 10

// approxSweep is the ε / recall-target grid the experiment measures.
// ε = 0 is the exactness control (hash-checked against the baseline);
// the ε ladder spans "indistinguishable" to "paper-figure coarse", and
// the recall-target rows exercise the leaf selector alone and combined.
var approxSweep = []struct {
	label string
	eps   float64
	rt    float64
}{
	{"exact (eps=0)", 0, 0},
	{"eps=0.02", 0.02, 0},
	{"eps=0.05", 0.05, 0},
	{"eps=0.1", 0.1, 0},
	{"eps=0.2", 0.2, 0},
	{"eps=0.5", 0.5, 0},
	{"eps=1.0", 1.0, 0},
	// Recall-target rows: note the per-leaf granularity — with 16-object
	// leaf buckets, ceil(rt x owners) only drops below the owner count at
	// rt <= 15/16, so targets above ~0.94 behave exactly.
	{"rt=0.9", 0, 0.9},
	{"rt=0.75", 0, 0.75},
	{"rt=0.5", 0, 0.5},
	{"eps=0.02 rt=0.9", 0.02, 0.9},
	{"eps=0.1 rt=0.75", 0.1, 0.75},
}

// RunApprox measures the approximate query mode: a self-AkNN join over
// the TAC surrogate, exact first, then across the ε / recall-target
// sweep, all serial (Parallelism 1) so speedups are per-core algorithmic
// savings rather than scheduling artifacts. The runs execute in the
// paper's cost model — the standard small buffer pool with the decoded-
// node cache disabled (as in the figure experiments), total time derived
// as CPU + pageTransfers x PageLatency — so the subtree descents that
// ε-inflated pruning avoids are charged at their modeled I/O cost, not
// just their in-memory CPU cost. Every run's result stream is scored
// against the brute-force oracle for measured recall and for the worst
// distance ratio (the observed ε), and the ε = 0 run must hash
// byte-identical to the exact baseline. With Config.JSONPath set, the
// table is also written as machine-readable JSON suitable for committing
// as BENCH_approx.json. With Config.MinRecall set, the run fails unless
// at least one ε > 0 configuration reaches that recall — the regression
// gate CI smoke uses to keep the approximation honest.
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
		eps, rt   float64
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
	// Ceiling measurement: seed every object's bound with its true k-th
	// neighbor distance from the oracle (via Options.BoundSeedSq). This
	// run upper-bounds every bound-based approximation — it is what a
	// two-pass pilot/verify scheme would cost with a perfect, free pilot —
	// so the gap between it and the exact row is the total speedup
	// headroom that ε-inflation or any recall-target selector can ever
	// reach at recall 1. On this engine the gap is small (~1.1-1.2x): the
	// shared leaf prefilter admits candidates by leaf-MBR mindist, which
	// tighter per-owner bounds barely affect, so the distance-calc count
	// is fixed by leaf-stream geometry rather than by bound quality.
	seed := make([]float64, len(pts))
	for i := range oracle {
		d := oracle[i].Neighbors[len(oracle[i].Neighbors)-1].Dist
		seed[oracle[i].Object] = d * d * (1 + 1e-9)
	}
	seedOpts := base
	seedOpts.BoundSeedSq = seed
	seedRes, err := bestOfCollect(ir, is, pool, seedOpts)
	if err != nil {
		return err
	}
	{
		recall, maxRatio := scoreAgainstOracle(seedRes.results, oracle)
		total := seedRes.wall + time.Duration(seedRes.io)*cfg.PageLatency
		rows = append(rows, row{"oracle-seeded", 0, 0, seedRes.wall, seedRes.io, total,
			seedRes.stats, seedRes.sched, recall, maxRatio, seedRes.hash == exactRes.hash})
	}
	for _, sw := range approxSweep {
		// The exact control row is the baseline measurement itself, so its
		// reported speedup is exactly 1 rather than timing noise.
		res := exactRes
		if sw.eps != 0 || sw.rt != 0 {
			opts := base
			opts.Epsilon = sw.eps
			opts.RecallTarget = sw.rt
			var err error
			res, err = bestOfCollect(ir, is, pool, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", sw.label, err)
			}
		}
		recall, maxRatio := scoreAgainstOracle(res.results, oracle)
		total := res.wall + time.Duration(res.io)*cfg.PageLatency
		heartbeat(cfg, "approx: "+sw.label, total, res.stats.Results)
		rows = append(rows, row{sw.label, sw.eps, sw.rt, res.wall, res.io, total,
			res.stats, res.sched, recall, maxRatio, res.hash == exactRes.hash})
	}

	fmt.Fprintf(w, "\n%-18s %9s %9s %10s %9s %8s %10s %13s %10s %10s\n",
		"configuration", "cpu", "io-pages", "total", "speedup", "recall", "max-ratio", "dist-calcs", "expand-s", "identical")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %9s %9d %10s %8.2fx %8.4f %10.6f %13d %10d %10v\n",
			r.label, fmtDur(r.wall), r.io, fmtDur(r.total), float64(exactTotal)/float64(r.total),
			r.recall, r.maxRatio, r.stats.DistanceCalcs, r.stats.NodesExpandedS, r.identical)
	}

	// Invariants every collection must satisfy, regardless of gates: the
	// ε = 0 control is byte-identical to the baseline with perfect recall,
	// and no run breaks its own (1+ε) distance contract.
	for _, r := range rows {
		if r.eps == 0 && r.rt == 0 {
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
		// The (1+ε) distance contract only binds pure-ε runs: the
		// recall-target selector trades unbounded distance error on its
		// straggler fraction for the recall floor instead.
		if r.rt == 0 {
			if limit := (1 + r.eps) * (1 + 1e-9); r.maxRatio > limit {
				return fmt.Errorf("approx: %s returned a distance %.6fx the true one, breaking the (1+ε) contract",
					r.label, r.maxRatio)
			}
		}
	}

	if cfg.JSONPath != "" {
		type runJSON struct {
			Label           string          `json:"label"`
			Epsilon         float64         `json:"epsilon"`
			RecallTarget    float64         `json:"recall_target"`
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
				RecallTarget:    r.rt,
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

	if cfg.MinRecall > 0 {
		bestSpeedup, bestLabel := 0.0, ""
		for _, r := range rows {
			if r.eps == 0 && r.rt == 0 {
				continue
			}
			if sp := float64(exactTotal) / float64(r.total); r.recall >= cfg.MinRecall && sp > bestSpeedup {
				bestSpeedup, bestLabel = sp, r.label
			}
		}
		if bestLabel == "" {
			return fmt.Errorf("min-recall gate: no approximate run reached recall %.4f", cfg.MinRecall)
		}
		fmt.Fprintf(w, "\nmin-recall gate passed: %s at %.2fx speedup with recall >= %.4f\n",
			bestLabel, bestSpeedup, cfg.MinRecall)
	}
	return nil
}

// approxData is the sweep's dataset: the FC surrogate (10-D, correlated)
// at the TAC cardinality (35K points at the default scale). Approximation
// is a high-dimensional lever — in 2-D the exact bounds are already tight
// and the blocked kernel has no per-dimension early-out to feed, so an ε
// that visibly saves work there costs recall; in 10-D the ε-shrunk bounds
// cut boundary-region descents and kernel columns that exact bounds
// cannot, at negligible recall cost.
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
