package curve

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/geom"
)

func unitSquare() geom.Rect {
	return geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})
}

func TestZEncoderBits(t *testing.T) {
	cases := []struct {
		dim  int
		want uint
	}{
		{1, 21}, {2, 21}, {3, 21}, {4, 16}, {6, 10}, {10, 6}, {32, 2},
	}
	for _, c := range cases {
		lo := make(geom.Point, c.dim)
		hi := make(geom.Point, c.dim)
		for d := range hi {
			hi[d] = 1
		}
		e := NewZEncoder(geom.NewRect(lo, hi))
		if e.BitsPerDim() != c.want {
			t.Errorf("dim %d: bits = %d, want %d", c.dim, e.BitsPerDim(), c.want)
		}
	}
}

func TestZEncoderCellClamping(t *testing.T) {
	e := NewZEncoder(unitSquare())
	// Outside points clamp to the boundary cells rather than wrapping.
	if got := e.Cell(geom.Point{-5, 0}, 0); got != 0 {
		t.Errorf("cell below range = %d, want 0", got)
	}
	max := uint64(1)<<e.BitsPerDim() - 1
	if got := e.Cell(geom.Point{5, 0}, 0); got != max {
		t.Errorf("cell above range = %d, want %d", got, max)
	}
}

func TestZValueKnownInterleaving(t *testing.T) {
	// 2-D with 21 bits/dim: the point at the exact center has top cell
	// bits (1, 1), so the two most significant interleaved bits are 11.
	e := NewZEncoder(unitSquare())
	zCenter := e.Value(geom.Point{0.5, 0.5})
	zOrigin := e.Value(geom.Point{0, 0})
	if zOrigin != 0 {
		t.Errorf("Z(origin) = %d, want 0", zOrigin)
	}
	if zCenter <= zOrigin {
		t.Error("Z(center) should exceed Z(origin)")
	}
	// Quadrant ordering of Z: (lo,lo) < (hi,lo)... with x interleaved
	// first: z(0.25,0.25) < z(0.25,0.75) < z(0.75,0.25) < z(0.75,0.75)
	q := []geom.Point{{0.25, 0.25}, {0.25, 0.75}, {0.75, 0.25}, {0.75, 0.75}}
	var prev uint64
	for i, p := range q {
		z := e.Value(p)
		if i > 0 && z <= prev {
			t.Fatalf("quadrant %d out of order: z=%d prev=%d", i, z, prev)
		}
		prev = z
	}
}

func TestZValueMonotone1D(t *testing.T) {
	e := NewZEncoder(geom.NewRect(geom.Point{0}, geom.Point{100}))
	var prev uint64
	for i := 0; i <= 100; i++ {
		z := e.Value(geom.Point{float64(i)})
		if z < prev {
			t.Fatalf("1-D Z-order not monotone at %d", i)
		}
		prev = z
	}
}

func TestSortZOrderGroupsNeighbors(t *testing.T) {
	// Two well-separated clusters: after Z-order sorting, all points of
	// one cluster must be contiguous.
	rng := rand.New(rand.NewSource(9))
	var pts []geom.Point
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{1000 + rng.Float64(), 1000 + rng.Float64()})
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	SortZOrder(pts, idx)
	// Find the transition point; after it, no low-cluster point may appear.
	inHigh := false
	for _, i := range idx {
		high := pts[i][0] > 500
		if inHigh && !high {
			t.Fatal("Z-order interleaved two well-separated clusters")
		}
		if high {
			inHigh = true
		}
	}
}

func TestHilbertKnownOrder2(t *testing.T) {
	// Order-2 Hilbert curve (4x4 grid) canonical indexing.
	want := map[[2]uint64]uint64{
		{0, 0}: 0, {1, 0}: 1, {1, 1}: 2, {0, 1}: 3,
		{0, 2}: 4, {0, 3}: 5, {1, 3}: 6, {1, 2}: 7,
		{2, 2}: 8, {2, 3}: 9, {3, 3}: 10, {3, 2}: 11,
		{3, 1}: 12, {2, 1}: 13, {2, 0}: 14, {3, 0}: 15,
	}
	for xy, d := range want {
		if got := HilbertValue(2, xy[0], xy[1]); got != d {
			t.Errorf("HilbertValue(2, %d, %d) = %d, want %d", xy[0], xy[1], got, d)
		}
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	const order = 8
	n := uint64(1) << (2 * order)
	for d := uint64(0); d < n; d += 7 { // sample the curve
		x, y := HilbertPoint(order, d)
		if got := HilbertValue(order, x, y); got != d {
			t.Fatalf("round trip failed: d=%d -> (%d,%d) -> %d", d, x, y, got)
		}
	}
}

// TestHilbertAdjacency: consecutive curve indices map to grid cells at
// Manhattan distance exactly 1 — the defining property of the Hilbert
// curve.
func TestHilbertAdjacency(t *testing.T) {
	const order = 6
	n := uint64(1) << (2 * order)
	px, py := HilbertPoint(order, 0)
	for d := uint64(1); d < n; d++ {
		x, y := HilbertPoint(order, d)
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			t.Fatalf("cells for d=%d and d=%d are not adjacent: (%d,%d) -> (%d,%d)",
				d-1, d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestHilbertEncoderRequires2D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 3-D bounds")
		}
	}()
	NewHilbertEncoder(geom.NewRect(geom.Point{0, 0, 0}, geom.Point{1, 1, 1}))
}

func TestSortHilbertGroupsNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pts []geom.Point
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.Point{500 + rng.Float64(), 500 + rng.Float64()})
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	SortHilbert(pts, idx)
	inHigh := false
	for _, i := range idx {
		high := pts[i][0] > 250
		if inHigh && !high {
			t.Fatal("Hilbert order interleaved two well-separated clusters")
		}
		if high {
			inHigh = true
		}
	}
}

func TestZeroExtentBounds(t *testing.T) {
	// Degenerate bounds (all points identical) must not divide by zero.
	e := NewZEncoder(geom.NewRect(geom.Point{3, 3}, geom.Point{3, 3}))
	if got := e.Value(geom.Point{3, 3}); got != 0 {
		t.Fatalf("Z-value in degenerate bounds = %d, want 0", got)
	}
}

// hilbertValueBits is HilbertValue as first written, the classic
// bit-twiddling conversion (Warren, "Hacker's Delight" / Wikipedia
// xy2d): walk the quadrant bits from most to least significant, rotating
// the frame at each step. It is the oracle of the table walk.
func hilbertValueBits(order uint, x, y uint64) uint64 {
	var d uint64
	for s := uint64(1) << (order - 1); s > 0; s >>= 1 {
		var rx, ry uint64
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// TestHilbertValueMatchesBitLoop holds the table walk to the bit loop at
// every order from 1 to 32: on every cell up to order 6, and above it on
// the grid's corners, the cells beside its centre lines and random cells.
func TestHilbertValueMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for order := uint(1); order <= 32; order++ {
		top := uint64(1)<<order - 1
		var cells [][2]uint64
		if order <= 6 {
			for x := uint64(0); x <= top; x++ {
				for y := uint64(0); y <= top; y++ {
					cells = append(cells, [2]uint64{x, y})
				}
			}
		} else {
			half := top / 2
			for _, x := range []uint64{0, 1, half, half + 1, top - 1, top} {
				for _, y := range []uint64{0, 1, half, half + 1, top - 1, top} {
					cells = append(cells, [2]uint64{x, y})
				}
			}
			for range 20_000 {
				cells = append(cells, [2]uint64{rng.Uint64() & top, rng.Uint64() & top})
			}
		}
		for _, c := range cells {
			if got, want := HilbertValue(order, c[0], c[1]), hilbertValueBits(order, c[0], c[1]); got != want {
				t.Fatalf("HilbertValue(%d, %d, %d) = %d, bit loop %d", order, c[0], c[1], got, want)
			}
		}
	}
}

// comparatorSort is SortZOrder and SortHilbert as first written: one key
// per point, then sort.Slice over idx.
func comparatorSort(enc Encoder, pts []geom.Point, idx []int) {
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = enc.Value(p)
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
}

// zValueByCell is ZEncoder.Value as first written: one Cell call per
// bit and dimension.
func zValueByCell(e *ZEncoder, p geom.Point) uint64 {
	var z uint64
	for b := int(e.bits) - 1; b >= 0; b-- {
		for d := range p {
			z = (z << 1) | ((e.Cell(p, d) >> uint(b)) & 1)
		}
	}
	return z
}

// TestCurveSortsMatchComparatorSort holds SortZOrder and SortHilbert to
// the comparator sort they replaced, from a shuffled idx: the key
// sequences must be equal, and so must the orders where the keys are
// distinct; equal keys keep their order in idx (the comparator sort left
// them in an order of its own). The sets below 10-D have distinct keys
// until points repeat; in 10-D a Z-key has 6 bits a dimension, and
// keys tie either way. It also holds ZEncoder.Value to one Cell call per
// bit.
func TestCurveSortsMatchComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, tc := range []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform2d", datagen.Uniform(16, 5001, datagen.UnitBounds(2))},
		{"clusters2d", datagen.GaussianClusters(17, 4001, datagen.UnitBounds(2), 5, 0.03)},
		{"uniform3d", datagen.Uniform(18, 3001, datagen.UnitBounds(3))},
		{"fc10d", datagen.FCSurrogate(19, 2001)},
	} {
		dups := append(slices.Clone(tc.pts), tc.pts[:len(tc.pts)/3]...)
		for _, set := range []struct {
			name string
			pts  []geom.Point
		}{{tc.name, tc.pts}, {tc.name + "+dups", dups}} {
			bounds := geom.BoundingRect(set.pts)
			z := NewZEncoder(bounds)
			for _, p := range set.pts {
				if got, want := z.Value(p), zValueByCell(z, p); got != want {
					t.Fatalf("%s: ZEncoder.Value(%v) = %d, one Cell per bit %d", set.name, p, got, want)
				}
			}
			sorts := []struct {
				name string
				sort func([]geom.Point, []int)
				enc  Encoder
			}{{"zorder", SortZOrder, z}}
			if bounds.Dim() == 2 {
				sorts = append(sorts, struct {
					name string
					sort func([]geom.Point, []int)
					enc  Encoder
				}{"hilbert", SortHilbert, NewHilbertEncoder(bounds)})
			}
			for _, s := range sorts {
				idx := rng.Perm(len(set.pts))
				pos := make([]int, len(idx)) // each index's place in the input idx
				for j, i := range idx {
					pos[i] = j
				}
				got, want := slices.Clone(idx), slices.Clone(idx)
				s.sort(set.pts, got)
				comparatorSort(s.enc, set.pts, want)
				distinct := true
				for j := range got {
					gk, wk := s.enc.Value(set.pts[got[j]]), s.enc.Value(set.pts[want[j]])
					if gk != wk {
						t.Fatalf("%s/%s: key %d at position %d, comparator sort %d", set.name, s.name, gk, j, wk)
					}
					if j > 0 && gk == s.enc.Value(set.pts[got[j-1]]) {
						distinct = false
						if pos[got[j]] < pos[got[j-1]] {
							t.Fatalf("%s/%s: equal keys out of their idx order at position %d", set.name, s.name, j)
						}
					}
				}
				if distinct && !slices.Equal(got, want) {
					t.Fatalf("%s/%s: order differs from the comparator sort", set.name, s.name)
				}
				if distinct == (set.name != tc.name) && bounds.Dim() < 10 {
					t.Fatalf("%s/%s: keys distinct = %v, want the opposite", set.name, s.name, distinct)
				}
			}
		}
	}
}

// BenchmarkHilbertValue times one Hilbert key of a random cell at the
// order a 2-D encoder uses (21 bits a coordinate).
func BenchmarkHilbertValue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const order, n = 21, 4096
	cells := make([][2]uint64, n)
	for i := range cells {
		cells[i] = [2]uint64{rng.Uint64() & (1<<order - 1), rng.Uint64() & (1<<order - 1)}
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cells[i%n]
		sink += HilbertValue(order, c[0], c[1])
	}
	_ = sink
}
