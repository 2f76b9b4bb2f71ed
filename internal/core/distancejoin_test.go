package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/geom"
)

func bruteDistanceJoin(r, s []geom.Point, d float64, excludeSelf bool) [][2]int {
	var out [][2]int
	dd := d * d
	for i, p := range r {
		for j, q := range s {
			if excludeSelf && i == j {
				continue
			}
			if geom.DistSq(p, q) <= dd {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func checkJoin(t *testing.T, rPts, sPts []geom.Point, d float64, excludeSelf bool) {
	t.Helper()
	ir := buildMBRQT(t, rPts)
	is := buildRStar(t, sPts)
	var got [][2]int
	_, err := DistanceJoinContext(context.Background(), ir, is, d, excludeSelf, func(p Pair) error {
		got = append(got, [2]int{int(p.R), int(p.S)})
		if actual := geom.Dist(rPts[p.R], sPts[p.S]); math.Abs(actual-p.Dist) > 1e-9 {
			t.Fatalf("pair (%d,%d): reported dist %g, actual %g", p.R, p.S, p.Dist, actual)
		}
		if p.Dist > d+1e-9 {
			t.Fatalf("pair (%d,%d) at dist %g exceeds join distance %g", p.R, p.S, p.Dist, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteDistanceJoin(rPts, sPts, d, excludeSelf)
	sortPairs := func(ps [][2]int) {
		sort.Slice(ps, func(a, b int) bool {
			if ps[a][0] != ps[b][0] {
				return ps[a][0] < ps[b][0]
			}
			return ps[a][1] < ps[b][1]
		})
	}
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("join found %d pairs, brute force %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDistanceJoinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dim := range []int{2, 3} {
		rPts := uniformPoints(rng, 150, dim, 100)
		sPts := uniformPoints(rng, 150, dim, 100)
		for _, d := range []float64{0.5, 5, 20} {
			checkJoin(t, rPts, sPts, d, false)
		}
	}
}

func TestDistanceJoinSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	pts := clusteredPoints(rng, 200, 2, 100)
	checkJoin(t, pts, pts, 2, true)
}

func TestDistanceJoinZeroDistance(t *testing.T) {
	pts := []geom.Point{{1, 1}, {1, 1}, {2, 2}}
	checkJoin(t, pts, pts, 0, false)
}

func TestDistanceJoinValidation(t *testing.T) {
	ir := buildMBRQT(t, []geom.Point{{1, 1}})
	is := buildMBRQT(t, []geom.Point{{1, 1, 1}})
	if _, err := DistanceJoinContext(context.Background(), ir, is, 1, false, func(Pair) error { return nil }); err == nil {
		t.Fatal("expected dimensionality error")
	}
	is2 := buildMBRQT(t, []geom.Point{{2, 2}})
	if _, err := DistanceJoinContext(context.Background(), ir, is2, -1, false, func(Pair) error { return nil }); err == nil {
		t.Fatal("expected negative-distance error")
	}
}
