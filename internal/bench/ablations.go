package bench

import (
	"fmt"

	"allnn/internal/core"
	"allnn/internal/geom"
	"allnn/internal/hnn"
	"allnn/internal/storage"
)

// RunAblations measures the design choices DESIGN.md calls out, all on
// the TAC workload (self-join, 512 KB pool):
//
//   - traversal order: depth-first (the paper's ANN-DFBI) vs breadth-first;
//   - the default engine vs the paper-literal variants (volatile LPQ
//     bounds, per-object gather);
//   - AkNN bound strategy: the paper's max-of-members vs the tighter
//     k-th-smallest (at k = 10);
//   - index structure under the identical engine: MBRQT (MBA) vs
//     R*-tree (RBA), both with NXNDIST.
func RunAblations(cfg Config) error {
	cfg = cfg.withDefaults()
	pts := tacData(cfg)
	qt, err := prepareSelf(KindMBRQT, pts)
	if err != nil {
		return err
	}
	rs, err := prepareSelf(KindRStar, pts)
	if err != nil {
		return err
	}

	var ms []Measurement
	add := func(m Measurement, err error) error {
		if err != nil {
			return err
		}
		ms = append(ms, m)
		return nil
	}

	base := core.Options{ExcludeSelf: true}
	if err := add(runMBA("MBA (default engine)", cfg, qt, base)); err != nil {
		return err
	}
	bfs := base
	bfs.Traversal = core.BreadthFirst
	if err := add(runMBA("MBA breadth-first", cfg, qt, bfs)); err != nil {
		return err
	}
	vol := base
	vol.VolatileBounds = true
	if err := add(runMBA("MBA paper-literal bounds", cfg, qt, vol)); err != nil {
		return err
	}
	pog := base
	pog.PerObjectGather = true
	if err := add(runMBA("MBA paper-literal gather", cfg, qt, pog)); err != nil {
		return err
	}
	lit := base
	lit.VolatileBounds = true
	lit.PerObjectGather = true
	if err := add(runMBA("MBA fully paper-literal", cfg, qt, lit)); err != nil {
		return err
	}
	if err := add(runMBA("RBA (R*-tree, same engine)", cfg, rs, base)); err != nil {
		return err
	}

	hnnM, err := runHNNConfig("HNN (hash-based, no index)", cfg, pts)
	if err != nil {
		return err
	}
	ms = append(ms, hnnM)

	// The max-of-MAXD AkNN bound against the k-th-smallest one, on a
	// quarter of the dataset: while object LPQs applied it too it was
	// >100x slower, and the rows stay comparable with those recordings.
	// It now governs node-owner LPQs only and costs about 1.25x.
	quarter := pts[:len(pts)/4]
	qtQ, err := prepareSelf(KindMBRQT, quarter)
	if err != nil {
		return err
	}
	k10 := core.Options{ExcludeSelf: true, K: 10, KBound: core.KBoundMaxAll}
	if err := add(runMBA("AkNN k=10, max-all bound (1/4 data)", cfg, qtQ, k10)); err != nil {
		return err
	}
	k10.KBound = core.KBoundKth
	if err := add(runMBA("AkNN k=10, kth bound (1/4 data)", cfg, qtQ, k10)); err != nil {
		return err
	}

	printTable(cfg.Out, fmt.Sprintf(
		"Ablations on TAC (%d points, self-join, 512KB pool)", len(pts)), ms)
	return nil
}

// runHNNConfig executes the hash-based baseline over a fresh store/pool
// of the configured size; both the bucket spill and the ring searches
// flow through the pool. The sequential read of both inputs is charged
// explicitly.
func runHNNConfig(name string, cfg Config, pts []geom.Point) (Measurement, error) {
	pool := storage.NewBufferPool(storage.NewMemStore(), storage.FramesForBytes(cfg.PoolBytes))
	ds := hnn.FromPoints(pts)
	extra := 2 * scanPages(len(pts), len(pts[0]))
	return measure(name, cfg, pool, extra, func() (uint64, error) {
		var results uint64
		st, err := hnn.Join(ds, ds, pool, hnn.Options{ExcludeSelf: true}, func(core.Result) error {
			results++
			return nil
		})
		st.AddTo(cfg.Metrics) // no-op on a nil registry
		return results, err
	})
}
