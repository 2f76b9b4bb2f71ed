package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

// --- Hand-computed fixtures -------------------------------------------------

func TestMinDist2D(t *testing.T) {
	m := NewRect(Point{0, 0}, Point{1, 1})
	cases := []struct {
		n    Rect
		want float64
	}{
		{NewRect(Point{3, 0}, Point{5, 4}), 2},       // gap only in x
		{NewRect(Point{4, 5}, Point{7, 9}), 5},       // gap 3 in x, 4 in y
		{NewRect(Point{0.5, 0.5}, Point{2, 2}), 0},   // overlapping
		{NewRect(Point{1, 1}, Point{2, 2}), 0},       // touching corner
		{NewRect(Point{-4, 0.2}, Point{-2, 0.8}), 2}, // gap to the left
		{NewRect(Point{0.2, -9}, Point{0.8, -2}), 2}, // gap below
	}
	for _, c := range cases {
		if got := MinDist(m, c.n); math.Abs(got-c.want) > tol {
			t.Errorf("MinDist(m, %v) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMaxDist2D(t *testing.T) {
	m := NewRect(Point{0, 0}, Point{1, 1})
	n := NewRect(Point{3, 0}, Point{5, 4})
	// Farthest corners are (0,0) and (5,4): sqrt(25+16).
	if got := MaxDist(m, n); math.Abs(got-math.Sqrt(41)) > tol {
		t.Errorf("MaxDist = %g, want sqrt(41)", got)
	}
	// A rect against itself: diagonal length.
	if got := MaxDist(m, m); math.Abs(got-math.Sqrt2) > tol {
		t.Errorf("MaxDist(m,m) = %g, want sqrt(2)", got)
	}
}

func TestNXNDistHandComputed(t *testing.T) {
	// M = [0,1]^2, N = [3,5]x[0,4].
	// MAXDIST = (5, 4), S = 41.
	// MAXMIN_x = 3 (at p=0), MAXMIN_y = 1 (at p=1).
	// candidates: 41-25+9 = 25 (x), 41-16+1 = 26 (y)  =>  NXNDIST = 5.
	m := NewRect(Point{0, 0}, Point{1, 1})
	n := NewRect(Point{3, 0}, Point{5, 4})
	if got := NXNDist(m, n); math.Abs(got-5) > tol {
		t.Errorf("NXNDist(m, n) = %g, want 5", got)
	}
	// Asymmetry (the paper notes NXNDIST is not commutable):
	// reversed, MAXMIN = (4, 3), candidates 32 (x) and 34 (y).
	if got := NXNDistSq(n, m); math.Abs(got-32) > tol {
		t.Errorf("NXNDistSq(n, m) = %g, want 32", got)
	}
}

func TestNXNDistIdenticalRects(t *testing.T) {
	// M = N = [0,2]^2: MAXDIST = (2,2), S = 8, MAXMIN = (1,1) at the
	// midpoints, candidates 5 and 5  =>  NXNDIST = sqrt(5).
	m := NewRect(Point{0, 0}, Point{2, 2})
	if got := NXNDistSq(m, m); math.Abs(got-5) > tol {
		t.Errorf("NXNDistSq(m, m) = %g, want 5", got)
	}
}

func TestNXNDistPointOwner(t *testing.T) {
	// Degenerate M (single point): MAXMIN_d reduces to the distance from
	// the point to the nearer face of N in each dimension.
	p := PointRect(Point{0, 0})
	n := NewRect(Point{2, 1}, Point{4, 3})
	// MAXDIST = (4, 3), S = 25. MAXMIN_x = 2, MAXMIN_y = 1.
	// candidates: 25-16+4 = 13, 25-9+1 = 17  =>  13.
	if got := NXNDistSq(p, n); math.Abs(got-13) > tol {
		t.Errorf("NXNDistSq = %g, want 13", got)
	}
}

func TestNXNDist3D(t *testing.T) {
	// 3-D hand computation. M = [0,1]^3, N = [2,4]x[0,2]x[5,6].
	// MAXDIST = (4, 2, 6); S = 16+4+36 = 56.
	// MAXMIN_x: f over [0,1] of min(|p-2|,|p-4|): f(0)=2, f(1)=1, mid 3 outside => 2.
	// MAXMIN_y: f over [0,1] of min(|p|,|p-2|): f(0)=0, f(1)=1, mid 1 inside => 1.
	// MAXMIN_z: f over [0,1] of min(|p-5|,|p-6|): f(0)=5, f(1)=4, mid 5.5 outside => 5.
	// candidates: 56-16+4=44, 56-4+1=53, 56-36+25=45  =>  44.
	m := NewRect(Point{0, 0, 0}, Point{1, 1, 1})
	n := NewRect(Point{2, 0, 5}, Point{4, 2, 6})
	if got := NXNDistSq(m, n); math.Abs(got-44) > tol {
		t.Errorf("NXNDistSq = %g, want 44", got)
	}
}

// TestLemma33CounterExample reproduces the spirit of the paper's Figure 2(b):
// a child pair (m, n) whose MINMINDIST exceeds NXNDIST of the parents, which
// is why NXNDIST enables early pruning that MAXMAXDIST cannot (Lemma 3.3).
func TestLemma33CounterExample(t *testing.T) {
	bigM := NewRect(Point{0, 0}, Point{2, 10})
	bigN := NewRect(Point{8, 0}, Point{10, 10})
	// MAXDIST = (10, 10), S = 200. MAXMIN_x = 8, MAXMIN_y = 5.
	// candidates: 200-100+64 = 164, 200-100+25 = 125  =>  NXNDIST^2 = 125.
	if got := NXNDistSq(bigM, bigN); math.Abs(got-125) > tol {
		t.Fatalf("NXNDistSq(M, N) = %g, want 125", got)
	}
	childM := NewRect(Point{0, 0}, Point{0.1, 0.1}) // bottom-left of M
	childN := NewRect(Point{8, 10}, Point{9.9, 10}) // top edge of N
	minmin := MinDistSq(childM, childN)             // 7.9^2 + 9.9^2 = 160.42
	if minmin <= 125 {
		t.Fatalf("counter-example broken: MINMINDIST^2(m,n) = %g should exceed 125", minmin)
	}
}

// --- Property tests ---------------------------------------------------------

// TestLemma31Soundness is the central correctness property: for any point
// set S with MBR N, and any point r in M, the distance from r to its
// nearest neighbor in S is at most NXNDIST(M, N).
func TestLemma31Soundness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 2, 3, 5, 8} {
		for iter := 0; iter < 300; iter++ {
			npts := 2 + rng.Intn(20)
			pts := make([]Point, npts)
			box := randRect(rng, dim, 100)
			for i := range pts {
				pts[i] = randPointIn(rng, box)
			}
			n := BoundingRect(pts)
			m := randRect(rng, dim, 100)
			bound := NXNDist(m, n)
			for rep := 0; rep < 10; rep++ {
				r := randPointIn(rng, m)
				nn := math.Inf(1)
				for _, s := range pts {
					if d := Dist(r, s); d < nn {
						nn = d
					}
				}
				if nn > bound+tol {
					t.Fatalf("dim=%d: NN dist %g exceeds NXNDIST %g for r=%v m=%v n=%v",
						dim, nn, bound, r, m, n)
				}
			}
		}
	}
}

// TestLemma32Monotone: shrinking the owner MBR never increases NXNDIST.
func TestLemma32Monotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 1000; iter++ {
		dim := 1 + rng.Intn(6)
		m := randRect(rng, dim, 100)
		n := randRect(rng, dim, 100)
		// Build a random child of m.
		child := Rect{Lo: make(Point, dim), Hi: make(Point, dim)}
		for d := 0; d < dim; d++ {
			a := m.Lo[d] + rng.Float64()*(m.Hi[d]-m.Lo[d])
			b := m.Lo[d] + rng.Float64()*(m.Hi[d]-m.Lo[d])
			if a > b {
				a, b = b, a
			}
			child.Lo[d], child.Hi[d] = a, b
		}
		if NXNDistSq(child, n) > NXNDistSq(m, n)+tol {
			t.Fatalf("monotonicity violated: child %v vs parent %v against %v", child, m, n)
		}
	}
}

// TestMetricOrdering: MINMIN <= NXNDIST <= MAXMAX.
func TestMetricOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 2000; iter++ {
		dim := 1 + rng.Intn(8)
		m := randRect(rng, dim, 100)
		n := randRect(rng, dim, 100)
		minmin := MinDistSq(m, n)
		nxn := NXNDistSq(m, n)
		maxmax := MaxDistSq(m, n)
		if minmin > nxn+tol {
			t.Fatalf("MINMIN %g > NXNDIST %g for %v, %v", minmin, nxn, m, n)
		}
		if nxn > maxmax+tol {
			t.Fatalf("NXNDIST %g > MAXMAX %g for %v, %v", nxn, maxmax, m, n)
		}
	}
}

// TestMinDistSymmetric: MINMINDIST and MAXMAXDIST are symmetric; NXNDIST
// generally is not (verified by the hand case above), but must still be
// well-defined in both directions.
func TestMinDistSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		dim := 1 + rng.Intn(5)
		m := randRect(rng, dim, 50)
		n := randRect(rng, dim, 50)
		if MinDistSq(m, n) != MinDistSq(n, m) {
			t.Fatalf("MinDistSq asymmetric for %v, %v", m, n)
		}
		if MaxDistSq(m, n) != MaxDistSq(n, m) {
			t.Fatalf("MaxDistSq asymmetric for %v, %v", m, n)
		}
	}
}

// TestMaxMinDimAgainstSampling checks the O(1) MAXMIN_d evaluation against a
// dense 1-D sampling of Definition 3.1.
func TestMaxMinDimAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 400; iter++ {
		ml := (rng.Float64()*2 - 1) * 50
		mh := ml + rng.Float64()*50
		nl := (rng.Float64()*2 - 1) * 50
		nh := nl + rng.Float64()*50
		exact := maxMinDim(ml, mh, nl, nh)
		const steps = 2000
		var sampled float64
		for i := 0; i <= steps; i++ {
			p := ml + (mh-ml)*float64(i)/steps
			f := math.Min(math.Abs(p-nl), math.Abs(p-nh))
			if f > sampled {
				sampled = f
			}
		}
		if sampled > exact+tol {
			t.Fatalf("sampled MAXMIN %g exceeds exact %g for M=[%g,%g] N=[%g,%g]",
				sampled, exact, ml, mh, nl, nh)
		}
		if exact-sampled > (mh-ml)/steps+tol {
			t.Fatalf("exact MAXMIN %g too far above sampled %g", exact, sampled)
		}
	}
}

// TestMinDistPointRectAgainstRectForm: the point-to-rect fast path must
// agree with the general rect-to-rect form applied to a degenerate rect.
func TestMinDistPointRectAgainstRectForm(t *testing.T) {
	f := func(a [3]float64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := clampSlice(a[:])
		r := randRect(rng, 3, 100)
		return math.Abs(MinDistPointRectSq(p, r)-MinDistSq(PointRect(p), r)) <= tol &&
			math.Abs(MaxDistPointRectSq(p, r)-MaxDistSq(PointRect(p), r)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMinDistZeroIffIntersect: MINMINDIST is zero exactly when the rects
// intersect.
func TestMinDistZeroIffIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		dim := 1 + rng.Intn(4)
		m := randRect(rng, dim, 10)
		n := randRect(rng, dim, 10)
		zero := MinDistSq(m, n) == 0
		if zero != m.Intersects(n) {
			t.Fatalf("MinDist zero=%v but Intersects=%v for %v, %v", zero, m.Intersects(n), m, n)
		}
	}
}

// TestNXNDistHighDim exercises the heap-allocation fallback path (D > 32).
func TestNXNDistHighDim(t *testing.T) {
	dim := 40
	lo := make(Point, dim)
	hi := make(Point, dim)
	lo2 := make(Point, dim)
	hi2 := make(Point, dim)
	for d := 0; d < dim; d++ {
		hi[d] = 1
		lo2[d] = 2
		hi2[d] = 3
	}
	m := NewRect(lo, hi)
	n := NewRect(lo2, hi2)
	got := NXNDistSq(m, n)
	// Each dimension: MAXDIST = 3, MAXMIN = 2 (f(0)=2, f(1)=1, mid 2.5 outside
	// of [0,1] => 2). S = 9*40 = 360; candidate = 360 - 9 + 4 = 355.
	if math.Abs(got-355) > tol {
		t.Fatalf("NXNDistSq = %g, want 355", got)
	}
}

func BenchmarkNXNDist2D(b *testing.B)  { benchNXN(b, 2) }
func BenchmarkNXNDist10D(b *testing.B) { benchNXN(b, 10) }

func benchNXN(b *testing.B, dim int) {
	rng := rand.New(rand.NewSource(1))
	m := randRect(rng, dim, 100)
	n := randRect(rng, dim, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += NXNDistSq(m, n)
	}
}

var sink float64
