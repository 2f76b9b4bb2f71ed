package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
)

func objEntry(id int, x, y float64) *index.Entry {
	p := geom.Point{x, y}
	return &index.Entry{Kind: index.ObjectEntry, MBR: geom.PointRect(p), Point: p, Object: index.ObjectID(id), Count: 1}
}

func nodeEntry(lo, hi geom.Point, count uint32) *index.Entry {
	return &index.Entry{Kind: index.NodeEntry, MBR: geom.NewRect(lo, hi), Count: count}
}

func newTestLPQ(k int) (*lpq, *Stats) {
	stats := &Stats{}
	owner := nodeEntry(geom.Point{0, 0}, geom.Point{1, 1}, 10)
	return newLPQ(owner, math.Inf(1), k, stats), stats
}

func TestLPQOrdering(t *testing.T) {
	q, _ := newTestLPQ(1)
	// maxd large enough not to prune anything.
	for _, mind := range []float64{5, 1, 3, 2, 4} {
		q.enqueue(lpqItem{e: objEntry(int(mind), 0, 0), mind: mind, maxd: 100})
	}
	var got []float64
	for {
		it, ok := q.dequeue()
		if !ok {
			break
		}
		got = append(got, it.mind)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("dequeue order not sorted by MIND: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("dequeued %d items, want 5", len(got))
	}
}

func TestLPQTieBreakByMaxd(t *testing.T) {
	q, _ := newTestLPQ(1)
	q.enqueue(lpqItem{e: objEntry(1, 0, 0), mind: 1, maxd: 50})
	q.enqueue(lpqItem{e: objEntry(2, 0, 0), mind: 1, maxd: 10})
	it, _ := q.dequeue()
	if it.maxd != 10 {
		t.Fatalf("tie on MIND must pop smaller MAXD first, got maxd %g", it.maxd)
	}
}

func TestLPQBoundTightensOnEnqueue(t *testing.T) {
	q, _ := newTestLPQ(1)
	if !math.IsInf(q.bound(), 1) {
		t.Fatal("fresh LPQ bound should be the inherited +Inf")
	}
	q.enqueue(lpqItem{e: objEntry(1, 0, 0), mind: 2, maxd: 9})
	if q.bound() != 9 {
		t.Fatalf("bound = %g, want 9", q.bound())
	}
	q.enqueue(lpqItem{e: objEntry(2, 0, 0), mind: 1, maxd: 4})
	if q.bound() != 4 {
		t.Fatalf("bound = %g, want 4", q.bound())
	}
}

func TestLPQProbePruning(t *testing.T) {
	q, stats := newTestLPQ(1)
	q.enqueue(lpqItem{e: objEntry(1, 0, 0), mind: 1, maxd: 2})
	q.enqueue(lpqItem{e: objEntry(2, 0, 0), mind: 50, maxd: 60}) // mind > bound 2
	if q.len() != 1 {
		t.Fatalf("len = %d, want 1 (far item pruned)", q.len())
	}
	if stats.PrunedOnProbe != 1 {
		t.Fatalf("PrunedOnProbe = %d, want 1", stats.PrunedOnProbe)
	}
}

func TestLPQFilterStageTruncates(t *testing.T) {
	q, stats := newTestLPQ(1)
	// Fill with loose items first.
	for i := 0; i < 5; i++ {
		q.enqueue(lpqItem{e: objEntry(i, 0, 0), mind: float64(10 + i), maxd: 100})
	}
	if q.len() != 5 {
		t.Fatalf("setup: len = %d", q.len())
	}
	// A tight item (maxd 3) must evict everything with mind > 3.
	q.enqueue(lpqItem{e: objEntry(9, 0, 0), mind: 1, maxd: 3})
	if q.len() != 1 {
		t.Fatalf("Filter Stage left %d items, want 1", q.len())
	}
	if stats.PrunedByFilter != 5 {
		t.Fatalf("PrunedByFilter = %d, want 5", stats.PrunedByFilter)
	}
}

// TestLPQMonotoneBoundNeverLoosens: removing the bound carrier leaves the
// bound where it was (internal/paperref keeps, and tests, the paper's
// rule, under which it loosens to the remaining members).
func TestLPQMonotoneBoundNeverLoosens(t *testing.T) {
	stats := &Stats{}
	owner := nodeEntry(geom.Point{0, 0}, geom.Point{1, 1}, 10)
	q := newLPQ(owner, 1000, 1, stats)
	q.enqueue(lpqItem{e: objEntry(1, 0, 0), mind: 1, maxd: 5})
	q.enqueue(lpqItem{e: objEntry(2, 0, 0), mind: 2, maxd: 80})
	q.dequeue()
	if q.bound() != 5 {
		t.Fatalf("monotone bound loosened to %g after dequeue", q.bound())
	}
}

func TestLPQKthBoundRequiresKMembers(t *testing.T) {
	q, _ := newTestLPQ(3)
	q.enqueue(lpqItem{e: objEntry(1, 0, 0), mind: 1, maxd: 10})
	q.enqueue(lpqItem{e: objEntry(2, 0, 0), mind: 1, maxd: 20})
	if !math.IsInf(q.bound(), 1) {
		t.Fatalf("bound with 2 of 3 members = %g, want +Inf", q.bound())
	}
	q.enqueue(lpqItem{e: objEntry(3, 0, 0), mind: 1, maxd: 30})
	if q.bound() != 30 {
		t.Fatalf("3rd-smallest maxd bound = %g, want 30", q.bound())
	}
}

// TestLPQRandomizedInvariants drives an LPQ with random operations and
// checks the structural invariants after each step.
func TestLPQRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		q, _ := newTestLPQ(1 + rng.Intn(3))
		for op := 0; op < 200; op++ {
			if rng.Intn(3) > 0 {
				mind := rng.Float64() * 100
				maxd := mind + rng.Float64()*100
				q.enqueue(lpqItem{e: objEntry(op, 0, 0), mind: mind, maxd: maxd})
			} else {
				q.dequeue()
			}
			// Invariant: live items sorted by (mind, maxd), all within bound.
			live := q.items[q.head:]
			bound := q.slackBound()
			for i := range live {
				if i > 0 {
					prev, cur := live[i-1], live[i]
					if prev.mind > cur.mind || (prev.mind == cur.mind && prev.maxd > cur.maxd) {
						t.Fatalf("live items out of order at %d", i)
					}
				}
				if live[i].mind > bound {
					t.Fatalf("live item with mind %g above bound %g survived", live[i].mind, bound)
				}
			}
		}
	}
}

func TestMetricStrings(t *testing.T) {
	if NXNDist.String() != "NXNDIST" || MaxMaxDist.String() != "MAXMAXDIST" {
		t.Fatal("metric names changed")
	}
	if Metric(9).String() != "UNKNOWN" {
		t.Fatal("unknown metric should say so")
	}
}

func TestHeapHelpers(t *testing.T) {
	var h []float64
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		heapPushMax(&h, v)
	}
	if h[0] != 9 {
		t.Fatalf("max-heap root = %g, want 9", h[0])
	}
	heapReplaceMax(h, 0)
	if h[0] != 6 {
		t.Fatalf("after replacing max, root = %g, want 6", h[0])
	}
}
