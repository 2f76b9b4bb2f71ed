package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/geom"
	"allnn/internal/index"
)

// hashRun executes the engine and hashes the emitted stream (object ids,
// neighbor ids, distance bits, in emission order), so two runs can be
// compared for byte-identical output.
func hashRun(t *testing.T, ir, is index.Tree, opts Options) (uint64, Stats) {
	t.Helper()
	h := fnv.New64a()
	var word [8]byte
	write := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	stats, err := Run(ir, is, opts, func(r Result) error {
		write(r.ID)
		for _, n := range r.Neighbors {
			write(n.ID)
			write(math.Float64bits(n.Dist))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), stats
}

// normCache folds the node-cache hit/miss split into its total: which
// tier serves a fetch depends on cache residency and sharding (runs on a
// shared index warm it, parallel runs re-shard it), while the total is a
// pure function of the traversal — the invariant these tests compare.
func normCache(s Stats) Stats {
	s.NodeCacheHits += s.NodeCacheMisses
	s.NodeCacheMisses = 0
	return s
}

// approxDatasets is the shared property-test matrix: uniform and
// clustered self-join datasets across dims 2, 3 and 7.
func approxDatasets(rng *rand.Rand, n int) map[string][]geom.Point {
	out := map[string][]geom.Point{}
	for _, dim := range []int{2, 3, 7} {
		out["uniform/"+string('0'+rune(dim))+"d"] = uniformPoints(rng, n, dim, 100)
		out["clustered/"+string('0'+rune(dim))+"d"] = clusteredPoints(rng, n, dim, 100)
	}
	return out
}

// TestApproxZeroEpsilonByteIdentical pins the ε=0 contract: explicitly
// setting Epsilon to 0 (and RecallTarget to 0 or 1, both of which mean
// "exact") must produce output byte-identical to the plain exact run —
// including every engine counter — serially and at parallelism 4.
func TestApproxZeroEpsilonByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	for name, pts := range approxDatasets(rng, 500) {
		t.Run(name, func(t *testing.T) {
			ix := buildMBRQT(t, pts)
			base := Options{K: 3, ExcludeSelf: true}
			wantHash, wantStats := hashRun(t, ix, ix, base)

			for _, tc := range []struct {
				label string
				opts  Options
			}{
				{"eps0", Options{K: 3, ExcludeSelf: true, Epsilon: 0}},
				{"eps0/rt1", Options{K: 3, ExcludeSelf: true, Epsilon: 0, RecallTarget: 1}},
				{"eps0/parallel4", Options{K: 3, ExcludeSelf: true, Epsilon: 0, Parallelism: 4, OrderedEmit: true}},
			} {
				gotHash, gotStats := hashRun(t, ix, ix, tc.opts)
				if gotHash != wantHash {
					t.Errorf("%s: output differs from exact run", tc.label)
				}
				if normCache(gotStats) != normCache(wantStats) {
					t.Errorf("%s: stats differ from exact run:\n got %+v\nwant %+v", tc.label, gotStats, wantStats)
				}
				if gotStats.LPQEarlyTerms != 0 {
					t.Errorf("%s: exact run recorded %d approx early terminations", tc.label, gotStats.LPQEarlyTerms)
				}
			}
		})
	}
}

// TestApproxContract checks the (1+ε) guarantee against brute force: at
// every ε each returned neighbor distance is within (1+ε) of the true
// distance at its rank, and no query object ever receives fewer
// neighbors than the exact run would produce (non-starvation).
func TestApproxContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	for name, pts := range approxDatasets(rng, 400) {
		t.Run(name, func(t *testing.T) {
			ix := buildMBRQT(t, pts)
			want := bruteforce.AkNN(bruteforce.FromPoints(pts), bruteforce.FromPoints(pts), 3, true)
			for _, eps := range []float64{1e-12, 0.05, 0.2, 1.0, 10} {
				got, _, err := Collect(ix, ix, Options{K: 3, ExcludeSelf: true, Epsilon: eps})
				if err != nil {
					t.Fatalf("eps=%g: %v", eps, err)
				}
				if len(got) != len(want) {
					t.Fatalf("eps=%g: %d results, want %d", eps, len(got), len(want))
				}
				sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
				limit := (1 + eps) * (1 + 1e-9)
				for i := range want {
					g, w := got[i], want[i]
					if g.ID != uint64(w.Object) {
						t.Fatalf("eps=%g: result %d is for object %d, want %d", eps, i, g.ID, w.Object)
					}
					if len(g.Neighbors) != len(w.Neighbors) {
						t.Fatalf("eps=%g: object %d got %d neighbors, want %d (starved)",
							eps, g.ID, len(g.Neighbors), len(w.Neighbors))
					}
					for n := range w.Neighbors {
						if g.Neighbors[n].Dist > w.Neighbors[n].Dist*limit {
							t.Fatalf("eps=%g: object %d rank %d dist %g breaks the contract vs true %g",
								eps, g.ID, n, g.Neighbors[n].Dist, w.Neighbors[n].Dist)
						}
					}
				}
			}
		})
	}
}

// measuredRecall computes distance-based recall: a returned neighbor at
// rank n counts as correct when its distance is no farther than the true
// rank-n distance (up to float tolerance), which is tie-insensitive.
func measuredRecall(got []Result, want []bruteforce.Result) float64 {
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	hits, total := 0, 0
	for i := range want {
		for n := range want[i].Neighbors {
			total++
			if n < len(got[i].Neighbors) && got[i].Neighbors[n].Dist <= want[i].Neighbors[n].Dist*(1+1e-9) {
				hits++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

// TestApproxRecallTarget checks the recall-targeted leaf selector: at
// ε=0 with RecallTarget rt, measured recall must be at least rt (the
// per-leaf floor implies the global one), and every object still
// receives its full k neighbors.
func TestApproxRecallTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	for name, pts := range approxDatasets(rng, 500) {
		t.Run(name, func(t *testing.T) {
			ix := buildMBRQT(t, pts)
			want := bruteforce.AkNN(bruteforce.FromPoints(pts), bruteforce.FromPoints(pts), 2, true)
			for _, rt := range []float64{0.5, 0.8, 0.95} {
				got, _, err := Collect(ix, ix, Options{K: 2, ExcludeSelf: true, RecallTarget: rt})
				if err != nil {
					t.Fatalf("rt=%g: %v", rt, err)
				}
				for _, g := range got {
					if len(g.Neighbors) != 2 {
						t.Fatalf("rt=%g: object %d got %d neighbors, want 2", rt, g.ID, len(g.Neighbors))
					}
				}
				if rec := measuredRecall(got, want); rec < rt {
					t.Errorf("rt=%g: measured recall %.4f below target", rt, rec)
				}
			}
		})
	}
}

// TestApproxSerialParallelParity checks that approximate decisions are
// deterministic functions of the bounds: an ε>0 ordered parallel run is
// byte-identical to the ε>0 serial run, with identical engine Stats
// (including the new prune counters).
func TestApproxSerialParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	for name, pts := range approxDatasets(rng, 600) {
		t.Run(name, func(t *testing.T) {
			ix := buildMBRQT(t, pts)
			for _, opts := range []Options{
				{K: 2, ExcludeSelf: true, Epsilon: 0.3},
				{K: 2, ExcludeSelf: true, Epsilon: 0.1, RecallTarget: 0.9},
			} {
				serialHash, serialStats := hashRun(t, ix, ix, opts)
				par := opts
				par.Parallelism = 4
				par.OrderedEmit = true
				parHash, parStats := hashRun(t, ix, ix, par)
				if parHash != serialHash {
					t.Errorf("eps=%g rt=%g: parallel output differs from serial", opts.Epsilon, opts.RecallTarget)
				}
				if normCache(parStats) != normCache(serialStats) {
					t.Errorf("eps=%g rt=%g: parallel stats differ:\n got %+v\nwant %+v",
						opts.Epsilon, opts.RecallTarget, parStats, serialStats)
				}
			}
		})
	}
}

// TestApproxPruneCountersVisible checks that ε actually moves the new
// counters: a coarse approximation must record approx-attributable LPQ
// early terminations and no more distance computations than exact.
func TestApproxPruneCountersVisible(t *testing.T) {
	rng := rand.New(rand.NewSource(1405))
	pts := clusteredPoints(rng, 1500, 3, 100)
	ix := buildMBRQT(t, pts)
	_, exact := hashRun(t, ix, ix, Options{K: 2, ExcludeSelf: true})
	_, approx := hashRun(t, ix, ix, Options{K: 2, ExcludeSelf: true, Epsilon: 1.0})
	if approx.LPQEarlyTerms == 0 {
		t.Error("eps=1.0 recorded no LPQ early terminations")
	}
	if approx.DistanceCalcs >= exact.DistanceCalcs {
		t.Errorf("eps=1.0 computed %d distances, exact %d — approximation saved nothing",
			approx.DistanceCalcs, exact.DistanceCalcs)
	}
	if exact.PrunedSubtrees == 0 {
		t.Error("exact run recorded no terminal-cut subtree discards (counter dead)")
	}
	if exact.LPQEarlyTerms != 0 {
		t.Errorf("exact run recorded %d approx early terminations", exact.LPQEarlyTerms)
	}
}

// TestBoundSeedExact pins the BoundSeedSq contract: seeding every
// object's LPQ with its true k-th neighbor distance (a valid upper
// bound, from brute force) must leave the output byte-identical to the
// unseeded exact run — serially and at parallelism 4 — while never
// increasing the distance-computation count. This is the verification
// pass of a pilot/verify pipeline in its best case.
func TestBoundSeedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1407))
	for name, pts := range approxDatasets(rng, 500) {
		t.Run(name, func(t *testing.T) {
			ix := buildMBRQT(t, pts)
			base := Options{K: 3, ExcludeSelf: true}
			wantHash, wantStats := hashRun(t, ix, ix, base)

			want := bruteforce.AkNN(bruteforce.FromPoints(pts), bruteforce.FromPoints(pts), 3, true)
			seeds := make([]float64, len(pts))
			for _, r := range want {
				d := r.Neighbors[len(r.Neighbors)-1].Dist
				seeds[r.Object] = d * d * (1 + 1e-9)
			}

			seeded := base
			seeded.BoundSeedSq = seeds
			gotHash, gotStats := hashRun(t, ix, ix, seeded)
			if gotHash != wantHash {
				t.Error("seeded run output differs from exact run")
			}
			if gotStats.DistanceCalcs > wantStats.DistanceCalcs {
				t.Errorf("seeded run computed %d distances, unseeded %d — seeds added work",
					gotStats.DistanceCalcs, wantStats.DistanceCalcs)
			}

			par := seeded
			par.Parallelism = 4
			par.OrderedEmit = true
			parHash, _ := hashRun(t, ix, ix, par)
			if parHash != wantHash {
				t.Error("seeded parallel run output differs from exact run")
			}
		})
	}
}

// TestApproxValidation checks the typed rejection of invalid knobs.
func TestApproxValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	pts := uniformPoints(rng, 50, 2, 10)
	ix := buildMBRQT(t, pts)
	bad := []Options{
		{Epsilon: -0.1},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
		{RecallTarget: -0.5},
		{RecallTarget: 1.5},
		{RecallTarget: math.NaN()},
	}
	for _, opts := range bad {
		opts.K = 1
		opts.ExcludeSelf = true
		_, _, err := Collect(ix, ix, opts)
		if err == nil {
			t.Errorf("options %+v accepted", opts)
			continue
		}
		if !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("options %+v rejected with untyped error %v", opts, err)
		}
	}
	// Valid edge values must be accepted.
	for _, opts := range []Options{
		{K: 1, ExcludeSelf: true, Epsilon: 0},
		{K: 1, ExcludeSelf: true, RecallTarget: 1},
		{K: 1, ExcludeSelf: true, RecallTarget: 0.5},
	} {
		if _, _, err := Collect(ix, ix, opts); err != nil {
			t.Errorf("options %+v rejected: %v", opts, err)
		}
	}
}
