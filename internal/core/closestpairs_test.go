package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/geom"
)

func bruteClosestPairs(r, s []geom.Point, k int, excludeSelf bool) []float64 {
	var ds []float64
	for i, p := range r {
		for j, q := range s {
			if excludeSelf && i == j {
				continue
			}
			ds = append(ds, geom.Dist(p, q))
		}
	}
	sort.Float64s(ds)
	if k < len(ds) {
		ds = ds[:k]
	}
	return ds
}

func TestKClosestPairsMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rPts := uniformPoints(rng, 150, 2, 100)
	sPts := uniformPoints(rng, 180, 2, 100)
	ir := buildMBRQT(t, rPts)
	is := buildRStar(t, sPts)
	for _, k := range []int{1, 5, 50} {
		got, _, err := KClosestPairsContext(context.Background(), ir, is, k, false)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteClosestPairs(rPts, sPts, k, false)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("k=%d pair %d: dist %g, want %g", k, i, got[i].Dist, want[i])
			}
			if math.Abs(geom.Dist(rPts[got[i].R], sPts[got[i].S])-got[i].Dist) > 1e-9 {
				t.Fatalf("pair %d: inconsistent reported distance", i)
			}
		}
	}
}

func TestKClosestPairsSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := clusteredPoints(rng, 200, 2, 100)
	ix := buildMBRQT(t, pts)
	got, _, err := KClosestPairsContext(context.Background(), ix, ix, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteClosestPairs(pts, pts, 10, true)
	for i := range want {
		if math.Abs(got[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("pair %d: dist %g, want %g", i, got[i].Dist, want[i])
		}
		if got[i].R == got[i].S {
			t.Fatalf("self pair (%d,%d) leaked", got[i].R, got[i].S)
		}
	}
}

func TestKClosestPairsKLargerThanAll(t *testing.T) {
	rPts := []geom.Point{{0, 0}, {1, 1}}
	sPts := []geom.Point{{2, 2}}
	ir := buildMBRQT(t, rPts)
	is := buildMBRQT(t, sPts)
	got, _, err := KClosestPairsContext(context.Background(), ir, is, 100, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d pairs, want 2", len(got))
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Dist < got[b].Dist }) {
		t.Fatal("pairs not sorted by distance")
	}
}

func TestKClosestPairsValidation(t *testing.T) {
	ir := buildMBRQT(t, []geom.Point{{1, 1}})
	is := buildMBRQT(t, []geom.Point{{1, 1, 1}})
	if _, _, err := KClosestPairsContext(context.Background(), ir, is, 1, false); err == nil {
		t.Fatal("expected dimensionality error")
	}
	is2 := buildMBRQT(t, []geom.Point{{2, 2}})
	if _, _, err := KClosestPairsContext(context.Background(), ir, is2, 0, false); err == nil {
		t.Fatal("expected error for k = 0")
	}
}
