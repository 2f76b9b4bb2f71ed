package paperref

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/core"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/mbrqt"
	"allnn/internal/rstar"
	"allnn/internal/storage"
)

func buildMBRQT(t testing.TB, pts []geom.Point) index.Tree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), 4096)
	tree, err := mbrqt.BulkLoad(pool, pts, nil, mbrqt.Config{BucketCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func buildRStar(t testing.TB, pts []geom.Point) index.Tree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), 4096)
	tree, err := rstar.BulkLoad(pool, pts, nil, rstar.Config{MaxEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// latticePoints returns the first n points of the integer lattice: every
// point has many neighbors at exactly equal distances.
func latticePoints(n, dim int) []geom.Point {
	side := int(math.Ceil(math.Pow(float64(n), 1/float64(dim))))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d, rest := 0, i; d < dim; d, rest = d+1, rest/side {
			p[d] = float64(rest % side)
		}
		pts[i] = p
	}
	return pts
}

// duplicatePoints draws n points from only `distinct` coordinates, so most
// of every neighbor list sits at distance zero.
func duplicatePoints(rng *rand.Rand, n, dim, distinct int) []geom.Point {
	base := make([]geom.Point, distinct)
	for i := range base {
		base[i] = make(geom.Point, dim)
		for d := range base[i] {
			base[i][d] = float64(rng.Intn(6))
		}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = base[rng.Intn(distinct)]
	}
	return pts
}

// rowHasher folds result rows — ids and distance bits, in emission order —
// into one FNV-64a hash.
type rowHasher struct {
	h    hash.Hash64
	word [8]byte
}

func newRowHasher() *rowHasher { return &rowHasher{h: fnv.New64a()} }

func (rh *rowHasher) sum() uint64 { return rh.h.Sum64() }

func (rh *rowHasher) write(v uint64) {
	binary.LittleEndian.PutUint64(rh.word[:], v)
	rh.h.Write(rh.word[:])
}

func (rh *rowHasher) emit(r core.Result) error {
	rh.write(r.ID)
	for _, n := range r.Neighbors {
		rh.write(n.ID)
		rh.write(math.Float64bits(n.Dist))
	}
	return nil
}

// The literal algorithm's answers on the recorded inputs below, as the
// commit before this package existed computed them with core.Run under
// {VolatileBounds, PerObjectGather, KBoundMaxAll} — the code this package
// was lifted from. To compare against another commit, give it a Run with
// this signature and run this test there: it reports what it computes.
// The FC case's tree halves only some dimensions at a split since the
// MBRQT learned to: its rows' distance vectors are the ones recorded
// before, and the hash moved with the emission order and the ids of
// equal-distance neighbours (0xd7abebd78467d6c0 and 990 300 before).
const (
	pinnedRowHash       = 0x96a10da6b2304a74
	pinnedDistanceCalcs = 1069429
)

func TestAnswersPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1907))
	lattice := latticePoints(300, 2)
	dups := duplicatePoints(rng, 300, 3, 12)
	uni := datagen.Uniform(3, 250, datagen.ScaledBounds(2, 100))
	clu := datagen.GaussianClusters(4, 300, datagen.ScaledBounds(2, 100), 6, 0.03)
	fc := datagen.FCSurrogate(5, 400)
	cases := []struct {
		ir, is      index.Tree
		ks          []int
		excludeSelf []bool
		metrics     []core.Metric
	}{
		{buildMBRQT(t, lattice), nil, []int{1, 4, 10}, []bool{true}, []core.Metric{core.NXNDist}},
		{buildRStar(t, dups), nil, []int{1, 4, 10}, []bool{false, true}, []core.Metric{core.NXNDist}},
		{buildMBRQT(t, uni), buildRStar(t, clu), []int{1, 4, 10}, []bool{false}, []core.Metric{core.NXNDist, core.MaxMaxDist}},
		{buildMBRQT(t, fc), nil, []int{1, 10}, []bool{true}, []core.Metric{core.NXNDist, core.MaxMaxDist}},
	}
	rh := newRowHasher()
	var calcs uint64
	for _, c := range cases {
		if c.is == nil {
			c.is = c.ir // self-join
		}
		for _, k := range c.ks {
			for _, ex := range c.excludeSelf {
				for _, metric := range c.metrics {
					n, err := Run(c.ir, c.is, k, ex, metric, rh.emit)
					if err != nil {
						t.Fatal(err)
					}
					calcs += n
				}
			}
		}
	}
	if got := rh.sum(); got != pinnedRowHash || calcs != pinnedDistanceCalcs {
		t.Fatalf("row hash %#x with %d distance evaluations, pinned %#x with %d",
			got, calcs, uint64(pinnedRowHash), uint64(pinnedDistanceCalcs))
	}
}

// matrixCase is one cell of the agreement matrix: R ≠ S in general
// position (no equal distances, so a row has one correct byte form), both
// tree kinds and the mixed pair, dims {2, 3, 10}, k {1, 4, 10},
// ExcludeSelf on and off, both metrics.
type matrixCase struct {
	name        string
	rPts, sPts  []geom.Point
	ir, is      index.Tree
	k           int
	excludeSelf bool
	metric      core.Metric
}

func forEachMatrixCase(t *testing.T, fn func(t *testing.T, c matrixCase)) {
	type builder func(testing.TB, []geom.Point) index.Tree
	trees := []struct {
		name   string
		br, bs builder
	}{
		{"mbrqt", buildMBRQT, buildMBRQT},
		{"rstar", buildRStar, buildRStar},
		{"mixed", buildMBRQT, buildRStar},
	}
	for _, dim := range []int{2, 3, 10} {
		rPts := datagen.Uniform(int64(10+dim), 220, datagen.ScaledBounds(dim, 100))
		sPts := datagen.Skewed(int64(20+dim), 260, datagen.ScaledBounds(dim, 100), 3)
		for _, tr := range trees {
			ir, is := tr.br(t, rPts), tr.bs(t, sPts)
			for _, k := range []int{1, 4, 10} {
				for _, ex := range []bool{false, true} {
					for _, metric := range []core.Metric{core.NXNDist, core.MaxMaxDist} {
						c := matrixCase{
							name: fmt.Sprintf("%s/%dd/k=%d/excludeSelf=%v/%v", tr.name, dim, k, ex, metric),
							rPts: rPts, sPts: sPts, ir: ir, is: is, k: k, excludeSelf: ex, metric: metric,
						}
						t.Run(c.name, func(t *testing.T) { fn(t, c) })
					}
				}
			}
		}
	}
}

// TestAgreesWithBruteForce: rank by rank, the reference reports the
// brute-force neighbor distances.
func TestAgreesWithBruteForce(t *testing.T) {
	forEachMatrixCase(t, func(t *testing.T, c matrixCase) {
		var got []core.Result
		if _, err := Run(c.ir, c.is, c.k, c.excludeSelf, c.metric, func(r core.Result) error {
			got = append(got, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := bruteforce.AkNN(bruteforce.FromPoints(c.rPts), bruteforce.FromPoints(c.sPts), c.k, c.excludeSelf)
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
		for i, w := range want {
			g := got[i]
			if g.ID != uint64(w.Object) || len(g.Neighbors) != len(w.Neighbors) {
				t.Fatalf("row %d: object %d with %d neighbors, want object %d with %d",
					i, g.ID, len(g.Neighbors), w.Object, len(w.Neighbors))
			}
			for n := range w.Neighbors {
				if math.Abs(g.Neighbors[n].Dist-w.Neighbors[n].Dist) > 1e-9 {
					t.Fatalf("object %d neighbor %d at %g, want %g", g.ID, n, g.Neighbors[n].Dist, w.Neighbors[n].Dist)
				}
			}
		}
	})
}

// TestCoreMatchesPaperRef is the differential the production engine is
// held to: serial and ordered-parallel, core.RunContext emits the reference's
// stream byte for byte (both traverse I_R depth-first, and in general
// position a row has one correct form).
func TestCoreMatchesPaperRef(t *testing.T) {
	forEachMatrixCase(t, func(t *testing.T, c matrixCase) {
		ref := newRowHasher()
		if _, err := Run(c.ir, c.is, c.k, c.excludeSelf, c.metric, ref.emit); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			eng := newRowHasher()
			opts := core.Options{K: c.k, ExcludeSelf: c.excludeSelf, Metric: c.metric, Parallelism: par, OrderedEmit: true}
			if _, err := core.RunContext(context.Background(), c.ir, c.is, opts, eng.emit); err != nil {
				t.Fatal(err)
			}
			if eng.sum() != ref.sum() {
				t.Fatalf("core.RunContext at parallelism %d emits a different stream than the reference", par)
			}
		}
	})
}

func objItem(id int, mind, maxd float64) item {
	p := geom.Point{0, 0}
	e := &index.Entry{Kind: index.ObjectEntry, MBR: geom.PointRect(p), Point: p, Object: index.ObjectID(id), Count: 1}
	return item{e: e, mind: mind, maxd: maxd}
}

func newTestLPQ(k int, inherited float64) *lpq {
	owner := &index.Entry{Kind: index.NodeEntry, MBR: geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}), Count: 10}
	return &lpq{owner: owner, inherited: inherited, cached: inherited, k: k}
}

// TestLPQBoundLoosensOnDequeue verifies the paper's current-member
// semantics: removing the bound carrier loosens the bound back toward the
// inherited value.
func TestLPQBoundLoosensOnDequeue(t *testing.T) {
	q := newTestLPQ(1, 1000)
	q.enqueue(objItem(1, 1, 5))
	q.enqueue(objItem(2, 2, 80))
	if q.bound() != 5 {
		t.Fatalf("bound = %g, want 5", q.bound())
	}
	q.dequeue() // removes the carrier (mind 1, maxd 5)
	if q.bound() != 80 {
		t.Fatalf("bound after dequeue = %g, want 80 (loosened to remaining member)", q.bound())
	}
	q.dequeue()
	if q.bound() != 1000 {
		t.Fatalf("bound after draining = %g, want inherited 1000", q.bound())
	}
}

// TestLPQMaxAllBound: for k > 1 the bound is the largest member MAXD, and
// only once k members are queued.
func TestLPQMaxAllBound(t *testing.T) {
	q := newTestLPQ(2, math.Inf(1))
	q.enqueue(objItem(1, 1, 10))
	if !math.IsInf(q.bound(), 1) {
		t.Fatal("max-all bound needs k members")
	}
	q.enqueue(objItem(2, 1, 25))
	if q.bound() != 25 {
		t.Fatalf("max-all bound = %g, want 25", q.bound())
	}
}

// TestLPQRandomizedInvariants drives an LPQ with random operations and
// checks after each that the queue is sorted by (MIND, MAXD) and holds
// nothing beyond its bound.
func TestLPQRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		q := newTestLPQ(1+rng.Intn(3), math.Inf(1))
		for op := 0; op < 200; op++ {
			if rng.Intn(3) > 0 {
				mind := rng.Float64() * 100
				if it := objItem(op, mind, mind+rng.Float64()*100); it.mind <= q.slackBound() {
					q.enqueue(it)
				}
			} else {
				q.dequeue()
			}
			bound := q.slackBound()
			for i, cur := range q.items {
				if i > 0 {
					if prev := q.items[i-1]; prev.mind > cur.mind || (prev.mind == cur.mind && prev.maxd > cur.maxd) {
						t.Fatalf("items out of order at %d", i)
					}
				}
				if cur.mind > bound {
					t.Fatalf("item with mind %g above bound %g survived", cur.mind, bound)
				}
			}
		}
	}
}
