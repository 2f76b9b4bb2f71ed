package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank on a sorted
// copy; 0 for an empty series.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median averages the two middle values of an even-sized series.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

const (
	lower  = "lower"
	higher = "higher"
)

// fastSide is how a run condenses what its slices (of the mix) or its
// passes (of a join) measured into one number: the second best of them —
// second lowest where better says lower, second highest otherwise; the
// only value of a series of one. The runner is a small virtual machine on
// a shared host whose neighbours slow it, for ten to thirty seconds at a
// time, by as much as a third; they never speed it up. So the slow side of
// the slices says what the neighbours were doing and the fast side what
// the code costs. The very best is left out: one slice can be lucky in the
// queries it happened to hold.
func fastSide(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := min(1, len(s)-1)
	if better == higher {
		at = len(s) - 1 - at
	}
	return s[at]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, and 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeLoop calls fn(i) for i in [0,n) `reps` times and returns the
// median nanoseconds per call over the repetitions — the estimator the
// layer micro-probes share.
func timeLoop(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}
