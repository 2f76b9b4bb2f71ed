package bench

import (
	"fmt"
	"math"

	"allnn/internal/core"
	"allnn/internal/geom"
	"allnn/internal/index"
)

// RunPruning is a supplementary experiment backing Section 4.3's claim
// directly at the node level: for owner nodes of each index level, how
// many same-level candidate nodes survive the basic pruning rule
//
//	keep N if MINMINDIST(M, N) <= min over N' of PM(M, N')
//
// under PM = NXNDIST versus PM = MAXMAXDIST, on both index structures.
// This isolates the pruning power of the metric (and of the index's
// decomposition) from the engine's exact-distance feedback, which in a
// full ANN run takes over as soon as leaf objects are reached.
func RunPruning(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	pts := tacData(cfg)
	w := cfg.Out
	fmt.Fprintf(w, "\nPruning power of the metrics on TAC (%d points): average surviving\n", len(pts))
	fmt.Fprintf(w, "same-level candidates per owner node (lower is better)\n")
	fmt.Fprintf(w, "%-10s %6s %10s %12s %12s %9s\n", "index", "level", "nodes", "NXNDIST", "MAXMAXDIST", "ratio")

	for _, kind := range []IndexKind{KindMBRQT, KindRStar} {
		prep, err := prepareSelf(kind, pts)
		if err != nil {
			return nil, err
		}
		tree, _, _, err := prep.open(64 << 20)
		if err != nil {
			return nil, err
		}
		levels, err := collectLevels(tree)
		if err != nil {
			return nil, err
		}
		name := "MBRQT"
		if kind == KindRStar {
			name = "R*-tree"
		}
		for lvl := 1; lvl < len(levels); lvl++ {
			nodes := levels[lvl]
			if len(nodes) < 2 {
				continue
			}
			nxn := avgSurvivors(nodes, core.NXNDist)
			mm := avgSurvivors(nodes, core.MaxMaxDist)
			ratio := "inf"
			if nxn > 0 {
				ratio = fmt.Sprintf("%.1fx", mm/nxn)
			}
			fmt.Fprintf(w, "%-10s %6d %10d %12.2f %12.2f %9s\n",
				name, lvl, len(nodes), nxn, mm, ratio)
		}
	}
	return nil, nil
}

// collectLevels returns the node MBRs of the tree grouped by depth
// (level 0 = root).
func collectLevels(t index.Tree) ([][]geom.Rect, error) {
	root, err := t.Root()
	if err != nil {
		return nil, err
	}
	if root.Count == 0 {
		return nil, nil
	}
	var levels [][]geom.Rect
	frontier := []index.Entry{root}
	for len(frontier) > 0 {
		mbrs := make([]geom.Rect, len(frontier))
		for i := range frontier {
			mbrs[i] = frontier[i].MBR
		}
		levels = append(levels, mbrs)
		var next []index.Entry
		for i := range frontier {
			entries, err := t.Expand(&frontier[i])
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				if !e.IsObject() {
					next = append(next, e)
				}
			}
		}
		frontier = next
	}
	return levels, nil
}

// avgSurvivors computes, over a sample of owner nodes, the mean number of
// same-level candidates with MINMINDIST below the metric-derived bound.
func avgSurvivors(nodes []geom.Rect, metric core.Metric) float64 {
	const maxOwners = 200
	step := 1
	if len(nodes) > maxOwners {
		step = len(nodes) / maxOwners
	}
	var total float64
	owners := 0
	for i := 0; i < len(nodes); i += step {
		m := nodes[i]
		bound := math.Inf(1)
		for j := range nodes {
			if j == i {
				continue
			}
			if b := metric.BoundSq(m, nodes[j]); b < bound {
				bound = b
			}
		}
		survivors := 0
		for j := range nodes {
			if j == i {
				continue
			}
			if geom.MinDistSq(m, nodes[j]) <= bound {
				survivors++
			}
		}
		total += float64(survivors)
		owners++
	}
	if owners == 0 {
		return 0
	}
	return total / float64(owners)
}
