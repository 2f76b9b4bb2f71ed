package core

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// setting Epsilon to 0 must produce output byte-identical to the plain
// exact run — including every engine counter — serially and at
// parallelism 4.
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

// checkContract runs the join and holds it to the (1+ε) contract against
// the brute-force rows want (computed at some k >= opts.K; true distances
// at a rank do not depend on k): no error, one row per object with as many
// neighbors as the exact answer has, every distance within (1+ε) of the
// true one at its rank.
func checkContract(t *testing.T, ir, is index.Tree, want []bruteforce.Result, opts Options) {
	t.Helper()
	label := fmt.Sprintf("k=%d eps=%g workers=%d", opts.K, opts.Epsilon, opts.Parallelism)
	got, _, err := Collect(ir, is, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	limit := (1 + opts.Epsilon) * (1 + 1e-9)
	for i := range want {
		g, w := got[i], want[i].Neighbors
		if len(w) > opts.K {
			w = w[:opts.K]
		}
		if g.ID != uint64(want[i].Object) {
			t.Fatalf("%s: result %d is for object %d, want %d", label, i, g.ID, want[i].Object)
		}
		if len(g.Neighbors) != len(w) {
			t.Fatalf("%s: object %d got %d neighbors, want %d (starved)", label, g.ID, len(g.Neighbors), len(w))
		}
		for n := range w {
			if g.Neighbors[n].Dist > w[n].Dist*limit {
				t.Fatalf("%s: object %d rank %d dist %g breaks the contract vs true %g",
					label, g.ID, n, g.Neighbors[n].Dist, w[n].Dist)
			}
		}
	}
}

// TestApproxContract checks the (1+ε) guarantee against brute force over
// two input sets. The self-joins cover data shapes and dimensions. The
// shifted joins are R ≠ S with S moved 90–300 along one axis of a 100-wide
// extent, so the two barely overlap or not at all and every query object's
// neighbors sit behind one face of S: a bound shrunk at node level starves
// the far owners there ("child LPQ starved"), which no self-join shows.
func TestApproxContract(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	for name, pts := range approxDatasets(rng, 400) {
		t.Run(name, func(t *testing.T) {
			ix := buildMBRQT(t, pts)
			want := bruteforce.AkNN(bruteforce.FromPoints(pts), bruteforce.FromPoints(pts), 3, true)
			for _, eps := range []float64{1e-12, 0.05, 0.2, 1.0, 10} {
				checkContract(t, ix, ix, want, Options{K: 3, ExcludeSelf: true, Epsilon: eps})
			}
		})
	}

	builders := map[string]func(testing.TB, []geom.Point) index.Tree{"mbrqt": buildMBRQT, "rstar": buildRStar}
	for kind, build := range builders {
		for _, dim := range []int{2, 3} {
			t.Run(fmt.Sprintf("shifted/%s/%dd", kind, dim), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					rPts := uniformPoints(rng, 400, dim, 100)
					ir := build(t, rPts)
					for _, shift := range []float64{90, 110, 150, 200, 300} {
						sPts := uniformPoints(rng, 400, dim, 100)
						for _, p := range sPts {
							p[0] += shift
						}
						is := build(t, sPts)
						want := bruteforce.AkNN(bruteforce.FromPoints(rPts), bruteforce.FromPoints(sPts), 10, false)
						for _, eps := range []float64{0.1, 0.5, 1, 3} {
							for _, k := range []int{1, 4, 10} {
								checkContract(t, ir, is, want, Options{K: k, Epsilon: eps})
								checkContract(t, ir, is, want, Options{K: k, Epsilon: eps, Parallelism: 4, OrderedEmit: true})
							}
						}
					}
				}
			})
		}
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
				{K: 2, ExcludeSelf: true, Epsilon: 1},
			} {
				serialHash, serialStats := hashRun(t, ix, ix, opts)
				par := opts
				par.Parallelism = 4
				par.OrderedEmit = true
				parHash, parStats := hashRun(t, ix, ix, par)
				if parHash != serialHash {
					t.Errorf("eps=%g: parallel output differs from serial", opts.Epsilon)
				}
				if normCache(parStats) != normCache(serialStats) {
					t.Errorf("eps=%g: parallel stats differ:\n got %+v\nwant %+v",
						opts.Epsilon, parStats, serialStats)
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

// TestApproxValidation checks the typed rejection of invalid knobs.
func TestApproxValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	pts := uniformPoints(rng, 50, 2, 10)
	ix := buildMBRQT(t, pts)
	bad := []Options{
		{Epsilon: -0.1},
		{Epsilon: math.NaN()},
		{Epsilon: math.Inf(1)},
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
	if _, _, err := Collect(ix, ix, Options{K: 1, ExcludeSelf: true, Epsilon: 0}); err != nil {
		t.Errorf("Epsilon 0 rejected: %v", err)
	}
}
