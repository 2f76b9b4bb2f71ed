package geom

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oracleSlack is core's boundSlack: the relative distance from its exact
// value within which every bound must land for the engine's pruning to
// stay sound (its derivation is beside the constant).
const oracleSlack = 1e-12

// exactRect is a rect's float coordinates as exact rationals.
type exactRect struct{ lo, hi []*big.Rat }

func exactOf(r Rect) exactRect {
	e := exactRect{lo: make([]*big.Rat, len(r.Lo)), hi: make([]*big.Rat, len(r.Hi))}
	for d := range r.Lo {
		e.lo[d] = new(big.Rat).SetFloat64(r.Lo[d])
		e.hi[d] = new(big.Rat).SetFloat64(r.Hi[d])
	}
	return e
}

func ratAbsDiff(a, b *big.Rat) *big.Rat { return new(big.Rat).Abs(new(big.Rat).Sub(a, b)) }

func ratMax(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

func ratMin(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

func ratSq(a *big.Rat) *big.Rat { return new(big.Rat).Mul(a, a) }

// exactMinDistSq is MINMINDIST² by its definition: the squared gaps
// between the intervals.
func exactMinDistSq(m, n exactRect) *big.Rat {
	s := new(big.Rat)
	for d := range m.lo {
		switch {
		case n.lo[d].Cmp(m.hi[d]) > 0:
			s.Add(s, ratSq(new(big.Rat).Sub(n.lo[d], m.hi[d])))
		case m.lo[d].Cmp(n.hi[d]) > 0:
			s.Add(s, ratSq(new(big.Rat).Sub(m.lo[d], n.hi[d])))
		}
	}
	return s
}

// exactMaxDim is MAXDIST_d: the farthest pair of coordinates.
func exactMaxDim(m, n exactRect, d int) *big.Rat {
	return ratMax(ratAbsDiff(m.lo[d], n.hi[d]), ratAbsDiff(m.hi[d], n.lo[d]))
}

func exactMaxDistSq(m, n exactRect) *big.Rat {
	s := new(big.Rat)
	for d := range m.lo {
		s.Add(s, ratSq(exactMaxDim(m, n, d)))
	}
	return s
}

// exactMaxMinDim is MAXMIN_d by Definition 3.1: the largest distance from
// a coordinate of M to the nearer face of N, attained at an endpoint of
// M's interval or at N's midpoint when M's interval holds it.
func exactMaxMinDim(m, n exactRect, d int) *big.Rat {
	f := func(p *big.Rat) *big.Rat { return ratMin(ratAbsDiff(p, n.lo[d]), ratAbsDiff(p, n.hi[d])) }
	v := ratMax(f(m.lo[d]), f(m.hi[d]))
	c := new(big.Rat).Add(n.lo[d], n.hi[d])
	c.Quo(c, big.NewRat(2, 1))
	if c.Cmp(m.lo[d]) >= 0 && c.Cmp(m.hi[d]) <= 0 {
		v = ratMax(v, f(c))
	}
	return v
}

// exactNXNDistSq is NXNDIST² as the minimum over d of the sum, each
// candidate summed from its own terms.
func exactNXNDistSq(m, n exactRect) *big.Rat {
	var best *big.Rat
	for d := range m.lo {
		s := ratSq(exactMaxMinDim(m, n, d))
		for e := range m.lo {
			if e != d {
				s.Add(s, ratSq(exactMaxDim(m, n, e)))
			}
		}
		if best == nil || s.Cmp(best) < 0 {
			best = s
		}
	}
	return best
}

// within reports whether got lies within oracleSlack of want, relative.
func within(got float64, want *big.Rat) bool {
	diff := ratAbsDiff(new(big.Rat).SetFloat64(got), want)
	return diff.Cmp(new(big.Rat).Mul(want, new(big.Rat).SetFloat64(oracleSlack))) <= 0
}

// checkExact compares every geom bound on (m, n) with its exact value on
// the same float inputs: MINMINDIST, MAXMAXDIST and NXNDIST both ways,
// and the point–rect bounds from m's low corner.
func checkExact(m, n Rect) error {
	em, en := exactOf(m), exactOf(n)
	p := PointRect(m.Lo)
	ep := exactOf(p)
	for _, c := range []struct {
		name string
		got  float64
		want *big.Rat
	}{
		{"MinDistSq", MinDistSq(m, n), exactMinDistSq(em, en)},
		{"MaxDistSq", MaxDistSq(m, n), exactMaxDistSq(em, en)},
		{"NXNDistSq(m, n)", NXNDistSq(m, n), exactNXNDistSq(em, en)},
		{"NXNDistSq(n, m)", NXNDistSq(n, m), exactNXNDistSq(en, em)},
		{"MinDistPointRectSq", MinDistPointRectSq(m.Lo, n), exactMinDistSq(ep, en)},
		{"MaxDistPointRectSq", MaxDistPointRectSq(m.Lo, n), exactMaxDistSq(ep, en)},
		{"NXNDistSq(point, n)", NXNDistSq(p, n), exactNXNDistSq(ep, en)},
	} {
		if !within(c.got, c.want) {
			want, _ := c.want.Float64()
			return fmt.Errorf("%s(%v, %v) = %.17g, exact %.17g (relative error %.3g)",
				c.name, m, n, c.got, want, math.Abs(c.got-want)/want)
		}
	}
	return nil
}

// oraclePair draws one MBR pair of the given family.
func oraclePair(rng *rand.Rand, family, dim int) (Rect, Rect) {
	m, n := EmptyRect(dim), EmptyRect(dim)
	span := func(lo, width float64) (float64, float64) { return lo, lo + width*rng.Float64() }
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for d := 0; d < dim; d++ {
		switch family {
		case 0: // general position in a 1000-wide space
			m.Lo[d], m.Hi[d] = span(1000*rng.Float64(), 100)
			n.Lo[d], n.Hi[d] = span(1000*rng.Float64(), 100)
		case 1: // one axis dominant: N spans 1e6–1e8 on axis 0, a narrow M sits near its low face
			n.Lo[d], n.Hi[d] = span(rng.Float64(), 1)
			m.Lo[d], m.Hi[d] = span(rng.Float64(), 1)
			if d == 0 {
				n.Lo[d], n.Hi[d] = 0, logUniform(1e6, 1e8)
				m.Lo[d], m.Hi[d] = span(2*rng.Float64()-1, 0.5)
			}
		case 2: // mixed scale: axis 0 is a timestamp-like column, offset up to 1e9
			off := 0.0
			if d == 0 {
				off = logUniform(1, 1e9)
			}
			m.Lo[d], m.Hi[d] = span(off+10*rng.Float64(), 5)
			n.Lo[d], n.Hi[d] = span(off+10*rng.Float64(), 5)
		case 3: // sibling MBRs of a split that halved some dimensions only
			if rng.Intn(3) == 0 { // halved: M in the lower half, N in the upper
				lo := 500 * rng.Float64() * rng.Float64()
				m.Lo[d], m.Hi[d] = span(lo, 500-lo)
				n.Lo[d], n.Hi[d] = span(500+250*rng.Float64(), 250)
			} else { // kept: both long over the cell's whole extent
				m.Lo[d], m.Hi[d] = span(10*rng.Float64(), 990)
				n.Lo[d], n.Hi[d] = span(10*rng.Float64(), 990)
			}
		default: // M a point
			m.Lo[d] = 1000 * rng.Float64()
			m.Hi[d] = m.Lo[d]
			n.Lo[d], n.Hi[d] = span(1000*rng.Float64(), 100)
		}
	}
	return m, n
}

// TestBoundsAgainstExact holds every geom bound to its exact value, in
// big.Rat arithmetic, within the engine's pruning slack: general pairs,
// pairs one of whose axes dominates (where NXNDIST's S - MAXDIST_d²
// cancelled), mixed-scale coordinates, the elongated siblings of an MBRQT
// split that halves only some dimensions, and points.
func TestBoundsAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for family := range 5 {
		for i := 0; i < 600; i++ {
			dim := 2 + rng.Intn(9)
			if i%50 == 0 {
				dim = 30
			}
			m, n := oraclePair(rng, family, dim)
			if err := checkExact(m, n); err != nil {
				t.Fatalf("family %d, pair %d: %v", family, i, err)
			}
		}
	}
}

// oracleRects decodes fuzz bytes into an MBR pair: the first byte picks
// the dimensionality, each following 8 bytes one float (cycling through
// the input), made finite and brought to binary exponents within ±48:
// magnitudes from 1e-14 to 1e14 mix scales widely while the rationals
// stay small enough for thousands of checks a second.
func oracleRects(data []byte) (Rect, Rect, bool) {
	if len(data) < 9 {
		return Rect{}, Rect{}, false
	}
	dim := 1 + int(data[0])%12
	body := data[1:]
	next := 0
	float := func() float64 {
		var b [8]byte
		for i := range b {
			b[i] = body[(next+i)%len(body)]
		}
		next += 8
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		frac, exp := math.Frexp(v)
		return math.Ldexp(frac, exp%48)
	}
	m, n := EmptyRect(dim), EmptyRect(dim)
	for _, r := range []Rect{m, n} {
		for d := 0; d < dim; d++ {
			a, b := float(), float()
			r.Lo[d], r.Hi[d] = min(a, b), max(a, b)
		}
	}
	return m, n, true
}

// encodeRects is oracleRects' inverse, for seeds.
func encodeRects(m, n Rect) []byte {
	out := []byte{byte(m.Dim() - 1)}
	for _, r := range []Rect{m, n} {
		for d := range r.Lo {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.Lo[d]))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.Hi[d]))
		}
	}
	return out
}

// FuzzBoundsAgainstExact is TestBoundsAgainstExact over arbitrary MBR
// pairs, seeded with one pair of each of its families.
func FuzzBoundsAgainstExact(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	for family := range 5 {
		f.Add(encodeRects(oraclePair(rng, family, 2+family)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, ok := oracleRects(data)
		if !ok {
			return
		}
		if err := checkExact(m, n); err != nil {
			t.Fatal(err)
		}
	})
}
