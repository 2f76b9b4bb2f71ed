package core

import (
	"sort"
	"sync"

	"allnn/internal/index"
)

// lpqItem is one candidate entry from I_S queued inside an LPQ, together
// with its squared MIND (lower bound) and MAXD (pruning metric upper
// bound) relative to the LPQ's owner.
type lpqItem struct {
	e    *index.Entry
	mind float64
	maxd float64
}

// lpq is the paper's Local Priority Queue: every node of I_R reached owns
// exactly one, holding the surviving candidate entries of I_S ordered by
// MIND (ties broken by MAXD, as the Filter Stage prescribes). Query
// objects own none: a leaf of I_R is answered by the fused leaf join.
//
// The queue is a sorted slice rather than a binary heap: LPQs stay small
// (the bound keeps them to a handful of entries), insertion keeps them
// ordered, and the Filter Stage becomes a single tail truncation — every
// entry past the first one with MIND > bound is discarded in O(1).
//
// The pruning bound (LPQ.MAXD of the paper) is min(inherited bound,
// bound derived from the members): every live member roots a distinct
// subtree guaranteeing at least one point within its MAXD — so the k-th
// smallest member MAXD bounds the k-th neighbor distance — and the
// inherited bound stays valid for the child owner by Lemma 3.2. The
// member-derived part would loosen when entries are dequeued; the bound is
// instead folded with min over time and never loosens (sound because the
// true k-NN distance is a data property, so any bound value once valid
// stays valid). internal/paperref keeps the paper's volatile rule.
type lpq struct {
	owner *index.Entry
	items []lpqItem
	head  int // dequeue position within items

	// cached is the current bound value — the parent LPQ's bound at
	// creation time, tightened by the members since; dirty marks it for
	// lazy recomputation after a dequeue.
	cached float64
	dirty  bool
	k      int
	// scratch is reused by the k-th smallest MAXD selection (k > 1).
	scratch []float64
	stats   *Stats
}

// lpqPool recycles LPQ structs together with their items/scratch backing
// arrays. An ANN run creates one LPQ per I_R node but only
// O(height x fanout) are ever live at once under the depth-first
// traversal, so pooling turns them into a constant number of live
// objects per worker.
var lpqPool = sync.Pool{New: func() any { return new(lpq) }}

// newLPQ creates an LPQ for owner with an inherited bound (Lemma 3.2
// makes the parent's bound valid for the child owner).
func newLPQ(owner *index.Entry, inherited float64, k int, stats *Stats) *lpq {
	stats.LPQsCreated++
	q := lpqPool.Get().(*lpq)
	*q = lpq{
		owner:   owner,
		items:   q.items[:0],
		cached:  inherited,
		k:       k,
		scratch: q.scratch[:0],
		stats:   stats,
	}
	return q
}

// releaseLPQ returns a fully drained LPQ to the pool. The caller must not
// touch q afterwards. Entry pointers held by the retained items backing
// array are cleared so the pool does not pin evicted cache slices.
func releaseLPQ(q *lpq) {
	clear(q.items[:cap(q.items)])
	q.owner = nil
	q.stats = nil
	lpqPool.Put(q)
}

// bound returns the current pruning upper bound, recomputing it after
// structural changes.
func (q *lpq) bound() float64 {
	if q.dirty {
		q.recomputeBound()
	}
	return q.cached
}

// recomputeBound folds the bound the live members derive into cached.
func (q *lpq) recomputeBound() {
	q.dirty = false
	members := q.items[q.head:]
	memberBound := infinity
	if q.k == 1 {
		for i := range members {
			if members[i].maxd < memberBound {
				memberBound = members[i].maxd
			}
		}
	} else {
		// The k-th smallest MAXD among the members, selected with a size-k
		// max-heap. The rebuilt heap stays live so later enqueues (until
		// the next dequeue) update it incrementally.
		q.scratch = q.scratch[:0]
		for i := range members {
			v := members[i].maxd
			if len(q.scratch) < q.k {
				heapPushMax(&q.scratch, v)
			} else if v < q.scratch[0] {
				heapReplaceMax(q.scratch, v)
			}
		}
		if len(q.scratch) == q.k {
			memberBound = q.scratch[0]
		}
	}
	if memberBound < q.cached {
		q.cached = memberBound // otherwise the previous, tighter bound stands
	}
}

// len returns the number of queued (not yet dequeued) entries.
func (q *lpq) len() int { return len(q.items) - q.head }

// enqueue inserts a candidate unless the bound prunes it, updates the
// bound, and applies the Filter Stage truncation.
func (q *lpq) enqueue(it lpqItem) {
	if it.mind > q.slackBound() {
		q.stats.PrunedOnProbe++
		return
	}
	q.enqueueChecked(it)
}

// enqueueChecked inserts a candidate whose MIND the caller has already
// tested against the bound.
func (q *lpq) enqueueChecked(it lpqItem) {
	// Insert in (mind, maxd) order among the live items.
	live := q.items[q.head:]
	pos := sort.Search(len(live), func(i int) bool {
		if live[i].mind != it.mind {
			return live[i].mind > it.mind
		}
		return live[i].maxd > it.maxd
	})
	q.items = append(q.items, lpqItem{})
	copy(q.items[q.head+pos+1:], q.items[q.head+pos:])
	q.items[q.head+pos] = it
	q.stats.Enqueued++

	// A new member can only tighten the bound: fold it in incrementally
	// when the cache is clean, recompute lazily otherwise.
	if q.dirty {
		// recomputeBound will see the new member.
	} else if q.k == 1 {
		if it.maxd < q.cached {
			q.cached = it.maxd
		}
	} else {
		// While no dequeue intervenes, the member set only grows, so the
		// size-k max-heap over member MAXDs stays valid and absorbs the
		// new value in O(log k) — no full rebuild.
		if len(q.scratch) < q.k {
			heapPushMax(&q.scratch, it.maxd)
		} else if it.maxd < q.scratch[0] {
			heapReplaceMax(q.scratch, it.maxd)
		}
		if len(q.scratch) == q.k && q.scratch[0] < q.cached {
			q.cached = q.scratch[0]
		}
	}
	q.filter()
}

// boundSlack is the relative tolerance applied when comparing a MIND
// against the pruning bound. The metric (e.g. NXNDIST^2 computed as
// S - MAXDIST^2 + MAXMIN^2) and an exact squared point distance follow
// different floating-point paths; at geometrically tight configurations
// the guaranteed point can land an ulp beyond the bound. The slack keeps
// such boundary candidates alive; it is orders of magnitude below any
// distance difference that matters.
//
// Why 1e-12 is enough, with u = 2^-53 the unit roundoff. Every bound in
// geom, and the kernel's squared point distance, is a sum of squares of
// rounded differences with no subtraction of partial results (NXNDistSq
// picks its dimension before it sums). A difference is rounded once, its
// square twice more, and a recursive sum of D non-negative terms adds
// D-1 roundings to each, so each value is within (1+u)^(D+2) - 1 ≈ (D+2)u
// of the exact result on the same float inputs: 32u ≈ 3.6e-15 at
// MaxDim = 30. A point the bound guarantees then lands at most about
// 2(D+2)u ≈ 7.1e-15 beyond it, which 1e-12 covers 140 times over. The
// exact-arithmetic oracle in geom (TestBoundsAgainstExact) holds every
// bound to 1e-12 of its exact value.
const boundSlack = 1e-12

// slackBound returns the pruning bound inflated by the relative slack.
func (q *lpq) slackBound() float64 {
	b := q.bound()
	return b + b*boundSlack
}

// filter is the Filter Stage: the live items are sorted by MIND, so all
// items past the first with MIND > bound can be dropped together. The
// bound contributors themselves always survive (their MIND is at most
// their MAXD, which is at most the bound), so truncation never loosens
// the bound.
func (q *lpq) filter() {
	live := q.items[q.head:]
	bound := q.slackBound()
	cut := sort.Search(len(live), func(i int) bool { return live[i].mind > bound })
	if cut < len(live) {
		q.stats.PrunedByFilter += uint64(len(live) - cut)
		q.items = q.items[:q.head+cut]
	}
}

// dequeue pops the smallest-MIND entry. Removing a member can loosen the
// member-derived part of the bound, so the cache goes dirty.
func (q *lpq) dequeue() (lpqItem, bool) {
	if q.head >= len(q.items) {
		return lpqItem{}, false
	}
	it := q.items[q.head]
	q.head++
	q.dirty = true
	return it, true
}

// --- tiny max-heap over float64 (k-th smallest tracker) ---------------------

func heapPushMax(h *[]float64, v float64) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent] >= s[i] {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func heapReplaceMax(h []float64, v float64) {
	h[0] = v
	i := 0
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r] > h[child] {
			child = r
		}
		if h[i] >= h[child] {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}
