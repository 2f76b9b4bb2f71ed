package bench

import (
	"fmt"

	"allnn/internal/bnn"
	"allnn/internal/core"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/gorder"
	"allnn/internal/storage"
)

// datasets of the paper's Table 2, scaled.
func tacData(cfg Config) []geom.Point {
	return datagen.TACSurrogate(cfg.Seed, cfg.scaled(700_000))
}

func fcData(cfg Config) []geom.Point {
	return datagen.FCSurrogate(cfg.Seed, cfg.scaled(580_000))
}

func syntheticData(cfg Config, dim int) []geom.Point {
	return datagen.Synthetic500K(cfg.Seed, cfg.scaled(500_000), dim)
}

// RunTable2 prints the dataset inventory (paper Table 2) with the
// cardinalities actually generated at the configured scale.
func RunTable2(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	w := cfg.Out
	fmt.Fprintf(w, "\nTable 2: experimental datasets (scale %.3f of the paper's cardinalities)\n", cfg.Scale)
	fmt.Fprintf(w, "%-10s %12s %5s  %s\n", "dataset", "cardinality", "dim", "description")
	rows := []struct {
		name string
		pts  []geom.Point
		desc string
	}{
		{"500K2D", syntheticData(cfg, 2), "GSTD-style synthetic 2-D point data"},
		{"500K4D", syntheticData(cfg, 4), "GSTD-style synthetic 4-D point data"},
		{"500K6D", syntheticData(cfg, 6), "GSTD-style synthetic 6-D point data"},
		{"TAC", tacData(cfg), "Twin Astrographic Catalog surrogate (2-D star positions)"},
		{"FC", fcData(cfg), "Forest Cover surrogate (10 numeric attributes)"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %5d  %s\n", r.name, len(r.pts), len(r.pts[0]), r.desc)
	}
	return nil, nil
}

// runBNNConfig executes BNN against a prepared R*-tree with the given
// pruning metric. The R side is charged a sequential scan of the query
// dataset (BNN reads R as a flat file to sort and group it).
func runBNNConfig(name string, cfg Config, p *prepared, pts []geom.Point, opts bnn.Options) (Measurement, error) {
	_, is, pool, err := p.open(cfg.PoolBytes)
	if err != nil {
		return Measurement{}, err
	}
	r := bnn.FromPoints(pts)
	extra := scanPages(len(pts), len(pts[0]))
	return measure(name, cfg, pool, extra, func() (uint64, error) {
		var results uint64
		st, err := bnn.BNN(r, is, opts, func(core.Result) error {
			results++
			return nil
		})
		st.AddTo(cfg.Metrics) // no-op on a nil registry
		return results, err
	})
}

// runGorderConfig executes GORDER over a fresh store/pool of the
// configured size; its sort-phase writes and join-phase reads all flow
// through that pool. The initial sequential read of both input datasets
// is charged explicitly.
func runGorderConfig(name string, cfg Config, rPts, sPts []geom.Point, opts gorder.Options) (Measurement, error) {
	pool := storage.NewBufferPool(storage.NewMemStore(), storage.FramesForBytes(cfg.PoolBytes))
	r := gorder.FromPoints(rPts)
	s := gorder.Dataset{IDs: r.IDs, Points: sPts}
	if len(sPts) != len(rPts) || &rPts[0] != &sPts[0] {
		s = gorder.FromPoints(sPts)
	}
	extra := scanPages(len(rPts), len(rPts[0])) + scanPages(len(sPts), len(sPts[0]))
	return measure(name, cfg, pool, extra, func() (uint64, error) {
		var results uint64
		st, err := gorder.Join(r, s, pool, opts, func(core.Result) error {
			results++
			return nil
		})
		st.AddTo(cfg.Metrics) // no-op on a nil registry
		return results, err
	})
}

// RunFig3a reproduces Figure 3(a): the ANN self-join of the TAC dataset
// under BNN, RBA and MBA with both pruning metrics, plus GORDER.
func RunFig3a(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	pts := tacData(cfg)
	qtPrep, err := prepareSelf(KindMBRQT, pts)
	if err != nil {
		return nil, err
	}
	rsPrep, err := prepareSelf(KindRStar, pts)
	if err != nil {
		return nil, err
	}

	var ms []Measurement
	add := func(m Measurement, err error) error {
		if err != nil {
			return err
		}
		ms = append(ms, m)
		return nil
	}
	for _, metric := range []core.Metric{core.MaxMaxDist, core.NXNDist} {
		if err := add(runBNNConfig("BNN "+metric.String(), cfg, rsPrep, pts,
			bnn.Options{Metric: metric, ExcludeSelf: true})); err != nil {
			return nil, err
		}
	}
	for _, metric := range []core.Metric{core.MaxMaxDist, core.NXNDist} {
		if err := add(runMBA("RBA "+metric.String(), cfg, rsPrep,
			core.Options{Metric: metric, ExcludeSelf: true})); err != nil {
			return nil, err
		}
	}
	for _, metric := range []core.Metric{core.MaxMaxDist, core.NXNDist} {
		if err := add(runMBA("MBA "+metric.String(), cfg, qtPrep,
			core.Options{Metric: metric, ExcludeSelf: true})); err != nil {
			return nil, err
		}
	}
	if err := add(runGorderConfig("GORDER", cfg, pts, pts,
		gorder.Options{ExcludeSelf: true})); err != nil {
		return nil, err
	}

	printTable(cfg.Out, fmt.Sprintf(
		"Figure 3(a): ANN on TAC (%d points, self-join, 512KB pool)", len(pts)), ms)
	// ms order: 0 BNN/MAXMAX, 1 BNN/NXN, 2 RBA/MAXMAX, 3 RBA/NXN,
	// 4 MBA/MAXMAX, 5 MBA/NXN, 6 GORDER.
	fmt.Fprintf(cfg.Out,
		"\nheadline ratios — NXNDIST over MAXMAXDIST: MBA %s, RBA %s, BNN %s; MBA over GORDER %s; MBA over RBA (both NXNDIST) %s\n",
		speedup(ms[4], ms[5]), speedup(ms[2], ms[3]), speedup(ms[0], ms[1]),
		speedup(ms[6], ms[5]), speedup(ms[3], ms[5]))
	return ms, nil
}

// RunFig3b reproduces Figure 3(b): ANN on the 10-D FC dataset, MBA vs
// GORDER, with the buffer pool varied from 512 KB to 8 MB.
func RunFig3b(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	pts := fcData(cfg)
	prep, err := prepareSelf(KindMBRQT, pts)
	if err != nil {
		return nil, err
	}
	var ms []Measurement
	for _, poolBytes := range []int{512 << 10, 1 << 20, 4 << 20, 8 << 20} {
		c := cfg
		c.PoolBytes = poolBytes
		label := fmt.Sprintf("%dKB", poolBytes>>10)
		m, err := runMBA("MBA "+label, c, prep, core.Options{ExcludeSelf: true})
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
		g, err := runGorderConfig("GORDER "+label, c, pts, pts, gorder.Options{ExcludeSelf: true})
		if err != nil {
			return nil, err
		}
		ms = append(ms, g)
	}
	printTable(cfg.Out, fmt.Sprintf(
		"Figure 3(b): ANN on FC (%d points, 10-D, self-join) across buffer pool sizes", len(pts)), ms)
	return ms, nil
}

// RunFig4 reproduces Figure 4: the effect of dimensionality on MBA vs
// GORDER over the synthetic 500K 2/4/6-D datasets.
func RunFig4(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	var ms []Measurement
	for _, dim := range []int{2, 4, 6} {
		pts := syntheticData(cfg, dim)
		prep, err := prepareSelf(KindMBRQT, pts)
		if err != nil {
			return nil, err
		}
		m, err := runMBA(fmt.Sprintf("MBA %dD", dim), cfg, prep, core.Options{ExcludeSelf: true})
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
		g, err := runGorderConfig(fmt.Sprintf("GORDER %dD", dim), cfg, pts, pts,
			gorder.Options{ExcludeSelf: true})
		if err != nil {
			return nil, err
		}
		ms = append(ms, g)
	}
	printTable(cfg.Out, "Figure 4: effect of dimensionality (synthetic 500K datasets, self-join ANN)", ms)
	for i := 0; i < len(ms); i += 2 {
		fmt.Fprintf(cfg.Out, "  %s: MBA faster than GORDER by %s\n", ms[i].Name[4:], speedup(ms[i+1], ms[i]))
	}
	return ms, nil
}

// paperKs are the k of Figures 5 and 6.
var paperKs = []int{10, 20, 30, 40, 50}

// RunFig5 reproduces Figure 5: AkNN on TAC for k = 10..50.
func RunFig5(cfg Config) ([]Measurement, error) {
	return runAkNNSweep(cfg, "Figure 5: AkNN on TAC", tacData(cfg.withDefaults()), paperKs)
}

// RunFig6 reproduces Figure 6: AkNN on FC for k = 10..50.
func RunFig6(cfg Config) ([]Measurement, error) {
	return runAkNNSweep(cfg, "Figure 6: AkNN on FC", fcData(cfg.withDefaults()), paperKs)
}

func runAkNNSweep(cfg Config, title string, pts []geom.Point, ks []int) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	prep, err := prepareSelf(KindMBRQT, pts)
	if err != nil {
		return nil, err
	}
	var ms []Measurement
	for _, k := range ks {
		m, err := runMBA(fmt.Sprintf("MBA k=%d", k), cfg, prep,
			core.Options{K: k, ExcludeSelf: true})
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
		g, err := runGorderConfig(fmt.Sprintf("GORDER k=%d", k), cfg, pts, pts,
			gorder.Options{K: k, ExcludeSelf: true})
		if err != nil {
			return nil, err
		}
		ms = append(ms, g)
	}
	printTable(cfg.Out, fmt.Sprintf("%s (%d points, self-join)", title, len(pts)), ms)
	for i := 0; i < len(ms); i += 2 {
		fmt.Fprintf(cfg.Out, "  %s: MBA faster than GORDER by %s\n", ms[i].Name[4:], speedup(ms[i+1], ms[i]))
	}
	return ms, nil
}
