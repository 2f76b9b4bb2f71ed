package geom

import "math"

// This file implements the MBR-to-MBR distance metrics of Section 3.1 of the
// paper. Figure 2(a) of the paper illustrates the relationships; for two
// MBRs M and N the metrics always satisfy
//
//	MINMINDIST(M,N) <= NXNDIST(M,N) <= MAXMAXDIST(M,N)
//
// NXNDIST (a.k.a. MINMAXMINDIST) is the paper's new upper bound for ANN
// pruning: for every point r in M, the distance from r to its nearest
// neighbor among any point set whose MBR is N is at most NXNDIST(M,N)
// (Lemma 3.1). Unlike MINMINDIST, NXNDIST is *not* symmetric in its
// arguments.

// MinDistSq returns the squared MINMINDIST between two MBRs: the squared
// minimum possible distance between a point in m and a point in n. It is
// zero when the rectangles intersect.
func MinDistSq(m, n Rect) float64 {
	if len(m.Lo) != len(n.Lo) {
		panic(dimMismatch(len(m.Lo), len(n.Lo)))
	}
	var s float64
	for d := range m.Lo {
		// Gap between the intervals [m.Lo[d], m.Hi[d]] and
		// [n.Lo[d], n.Hi[d]]; zero if they overlap.
		var gap float64
		switch {
		case n.Lo[d] > m.Hi[d]:
			gap = n.Lo[d] - m.Hi[d]
		case m.Lo[d] > n.Hi[d]:
			gap = m.Lo[d] - n.Hi[d]
		}
		s += gap * gap
	}
	return s
}

// MinDist returns the MINMINDIST between two MBRs.
func MinDist(m, n Rect) float64 { return math.Sqrt(MinDistSq(m, n)) }

// MaxDistSq returns the squared MAXMAXDIST between two MBRs: the squared
// maximum possible distance between a point in m and a point in n. This is
// the traditional ANN pruning upper bound that NXNDIST improves upon.
func MaxDistSq(m, n Rect) float64 {
	if len(m.Lo) != len(n.Lo) {
		panic(dimMismatch(len(m.Lo), len(n.Lo)))
	}
	var s float64
	for d := range m.Lo {
		g := maxDistDim(m.Lo[d], m.Hi[d], n.Lo[d], n.Hi[d])
		s += g * g
	}
	return s
}

// MaxDist returns the MAXMAXDIST between two MBRs.
func MaxDist(m, n Rect) float64 { return math.Sqrt(MaxDistSq(m, n)) }

// maxDistDim is MAXDIST_d of the paper: the maximum distance in one
// dimension between a coordinate in [ml, mh] and a coordinate in [nl, nh].
// It equals max(|ml-nh|, |mh-nl|); the other two corner combinations of
// Algorithm 1 line 4 are dominated by these two.
func maxDistDim(ml, mh, nl, nh float64) float64 {
	a := math.Abs(ml - nh)
	if b := math.Abs(mh - nl); b > a {
		a = b
	}
	return a
}

// maxMinDim is MAXMIN_d of Definition 3.1: the maximum over p in [ml, mh]
// of the distance from p to the *nearer* endpoint of [nl, nh].
//
// The function f(p) = min(|p-nl|, |p-nh|) is piecewise linear: it falls to
// zero at nl and nh, peaks at the midpoint c = (nl+nh)/2 with value
// (nh-nl)/2, and increases linearly outside [nl, nh]. Over the interval
// [ml, mh] its maximum is therefore attained either at an endpoint of the
// interval or at c when c lies inside the interval, giving an O(1)
// evaluation.
//
// Whether c lies in [ml, mh] is decided on differences (ml-nl <= nh-ml
// is ml <= c), never on c rounded: rounding is monotone, so the peak is
// never dropped when it belongs, and where the rounded differences tie
// the peak exceeds f(ml) or f(mh) by an ulp-scale amount only. A rounded
// c far from the origin could fall outside an interval that holds the
// true c, and lose up to half its ulp from a bound whose scale is
// nh-nl.
func maxMinDim(ml, mh, nl, nh float64) float64 {
	f := func(p float64) float64 {
		return math.Min(math.Abs(p-nl), math.Abs(p-nh))
	}
	v := math.Max(f(ml), f(mh))
	if ml-nl <= nh-ml && nh-mh <= mh-nl {
		v = math.Max(v, (nh-nl)/2)
	}
	return v
}

// maxPointToValue is the maximum distance from a coordinate in [lo, hi] to
// the fixed coordinate v.
func maxPointToValue(lo, hi, v float64) float64 {
	return math.Max(math.Abs(lo-v), math.Abs(hi-v))
}

// NXNDistSq returns the squared NXNDIST (MINMAXMINDIST) between two MBRs,
// the quantity of the paper's Algorithm 1:
//
//	NXNDIST^2 = min over d of S - MAXDIST_d^2 + MAXMIN_d^2,
//	S = sum over d of MAXDIST_d(M,N)^2
//
// Geometrically (Figure 1), for each dimension d a search region is formed
// by sweeping a (D-1)-dimensional slab of full MAXDIST extent along
// dimension d by only MAXMIN_d; every such region is guaranteed to contain,
// for any r in M, at least one point of any point set whose MBR is N. The
// squared diagonal of the smallest region is the bound.
//
// The algorithm's S - MAXDIST_d^2 cancels when one dimension dominates S
// (a long N beside a narrow M) and can land far below the true value, a
// bound too tight to be one. So pass 1 finds the d* that gains most,
// (MAXDIST_d - MAXMIN_d)(MAXDIST_d + MAXMIN_d), and pass 2 sums
// MAXMIN_d*^2 and every other MAXDIST_e^2: non-negative terms only, so
// the result is within a relative (D+2)·2^-53 of the exact value on the
// same inputs (see core's boundSlack). Any d gives a valid bound by Lemma 3.1,
// so a d* misjudged by rounding errs loose, never tight.
func NXNDistSq(m, n Rect) float64 {
	dim := len(m.Lo)
	if dim != len(n.Lo) {
		panic(dimMismatch(dim, len(n.Lo)))
	}
	// Pass 2 needs each MAXDIST_d again. For the dimensionalities this
	// library targets (D <= 32) a stack-friendly fixed array avoids
	// per-call allocation on the hot path.
	var buf [32]float64
	maxd := buf[:0]
	if dim > len(buf) {
		maxd = make([]float64, 0, dim)
	}
	best, gain, mm := 0, -1.0, 0.0
	for d := 0; d < dim; d++ {
		g := maxDistDim(m.Lo[d], m.Hi[d], n.Lo[d], n.Hi[d])
		maxd = append(maxd, g)
		v := maxMinDim(m.Lo[d], m.Hi[d], n.Lo[d], n.Hi[d])
		if w := (g - v) * (g + v); w > gain {
			best, gain, mm = d, w, v
		}
	}
	s := mm * mm
	for d, g := range maxd {
		if d != best {
			s += g * g
		}
	}
	return s
}

// NXNDist returns the NXNDIST between two MBRs. Note the metric is
// asymmetric: NXNDist(m, n) bounds the NN distance *from* points of m *to*
// point sets bounded by n, and generally differs from NXNDist(n, m).
func NXNDist(m, n Rect) float64 { return math.Sqrt(NXNDistSq(m, n)) }

// MinDistPointRectSq returns the squared minimum distance from point p to
// rectangle r (zero if p is inside r).
func MinDistPointRectSq(p Point, r Rect) float64 {
	if len(p) != len(r.Lo) {
		panic(dimMismatch(len(p), len(r.Lo)))
	}
	var s float64
	for d := range p {
		var gap float64
		switch {
		case p[d] < r.Lo[d]:
			gap = r.Lo[d] - p[d]
		case p[d] > r.Hi[d]:
			gap = p[d] - r.Hi[d]
		}
		s += gap * gap
	}
	return s
}

// MinDistPointRect returns the minimum distance from point p to rectangle r.
func MinDistPointRect(p Point, r Rect) float64 {
	return math.Sqrt(MinDistPointRectSq(p, r))
}

// MaxDistPointRectSq returns the squared maximum distance from point p to
// any point of rectangle r.
func MaxDistPointRectSq(p Point, r Rect) float64 {
	if len(p) != len(r.Lo) {
		panic(dimMismatch(len(p), len(r.Lo)))
	}
	var s float64
	for d := range p {
		g := maxPointToValue(r.Lo[d], r.Hi[d], p[d])
		s += g * g
	}
	return s
}
