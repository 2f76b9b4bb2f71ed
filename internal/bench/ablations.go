package bench

import (
	"fmt"

	"allnn/internal/core"
	"allnn/internal/paperref"
)

// RunAblations measures what DESIGN.md §5 calls out, all on the TAC
// workload (self-join, 512 KB pool):
//
//   - the default engine against the paper's algorithm as printed
//     (internal/paperref: an LPQ per query object with volatile bounds,
//     a Gather Stage per object), at k = 1 and — on a quarter of the
//     data, where the printed max-of-MAXD rule inside every object's LPQ
//     makes the literal row take its time — at k = 10;
//   - index structure under the identical engine: MBRQT (MBA) vs
//     R*-tree (RBA), both with NXNDIST.
func RunAblations(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	pts := tacData(cfg)
	qt, err := prepareSelf(KindMBRQT, pts)
	if err != nil {
		return nil, err
	}
	rs, err := prepareSelf(KindRStar, pts)
	if err != nil {
		return nil, err
	}
	qtQ, err := prepareSelf(KindMBRQT, pts[:len(pts)/4])
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

	base := core.Options{ExcludeSelf: true}
	if err := add(runMBA("MBA (default engine)", cfg, qt, base)); err != nil {
		return nil, err
	}
	if err := add(runPaperRef("MBA paper-literal (Algorithms 2–4 as printed)", cfg, qt, 1)); err != nil {
		return nil, err
	}
	if err := add(runMBA("RBA (R*-tree, same engine)", cfg, rs, base)); err != nil {
		return nil, err
	}
	k10 := core.Options{ExcludeSelf: true, K: 10}
	if err := add(runMBA("AkNN k=10, default engine (1/4 data)", cfg, qtQ, k10)); err != nil {
		return nil, err
	}
	if err := add(runPaperRef("AkNN k=10, paper-literal (1/4 data)", cfg, qtQ, 10)); err != nil {
		return nil, err
	}

	printTable(cfg.Out, fmt.Sprintf(
		"Ablations on TAC (%d points, self-join, 512KB pool)", len(pts)), ms)
	return ms, nil
}

// runPaperRef executes the paper-literal reference engine as a self-join
// with NXNDIST against prepared indexes, the way runMBA executes the
// default one.
func runPaperRef(name string, cfg Config, p *prepared, k int) (Measurement, error) {
	ir, is, pool, err := p.open(cfg.PoolBytes)
	if err != nil {
		return Measurement{}, err
	}
	return measure(name, cfg, pool, 0, func() (uint64, error) {
		var results uint64
		_, err := paperref.Run(ir, is, k, true, core.NXNDist, func(core.Result) error {
			results++
			return nil
		})
		return results, err
	})
}
