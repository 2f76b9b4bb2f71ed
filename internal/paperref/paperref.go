// Package paperref is the paper's MBA (Algorithms 2–4) as printed, kept as
// the reference the production engine in internal/core is measured and
// tested against: every entry of I_R — query objects included — owns a
// Local Priority Queue whose pruning bound is re-derived from its current
// members, and each query object's Gather Stage re-expands on its own
// whatever candidate nodes remain above object level.
//
// It is serial, has nothing to configure and reads the trees through
// Expand only. `annbench -exp ablate` runs it beside the default engine,
// and the tests hold internal/core's answers to it.
package paperref

import (
	"fmt"
	"math"
	"sort"

	"allnn/internal/core"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/pq"
)

// Run answers the ANN/AkNN query of core.RunContext — for every point of
// ir its k nearest points of is, one emit per query object, in index
// traversal order — with the paper's literal algorithm, and returns the number of
// owner/candidate distance evaluations it made. excludeSelf drops the
// neighbor carrying the query object's own id (one extra neighbor is
// searched so pruning stays sound). k below 1 means 1.
func Run(ir, is index.Tree, k int, excludeSelf bool, metric core.Metric, emit func(core.Result) error) (distanceCalcs uint64, err error) {
	if ir.Dim() != is.Dim() {
		return 0, fmt.Errorf("paperref: index dimensionality mismatch: %d vs %d", ir.Dim(), is.Dim())
	}
	rootR, err := ir.Root()
	if err != nil {
		return 0, err
	}
	rootS, err := is.Root()
	if err != nil {
		return 0, err
	}
	if rootR.Count == 0 {
		return 0, nil
	}
	if rootS.Count == 0 {
		return 0, fmt.Errorf("paperref: empty target index")
	}
	r := &run{ir: ir, is: is, k: max(k, 1), excludeSelf: excludeSelf, metric: metric, emit: emit}
	// Algorithm 2: the root LPQ holds the root of I_S.
	root := &lpq{owner: &rootR, inherited: math.Inf(1), cached: math.Inf(1), k: r.k}
	if excludeSelf {
		root.k++
	}
	r.probe(root, &rootS, math.Inf(1))
	return r.calcs, r.dfbi(root)
}

type run struct {
	ir, is      index.Tree
	k           int
	excludeSelf bool
	metric      core.Metric
	emit        func(core.Result) error
	calcs       uint64
}

// dfbi is Algorithm 3 (ANN-DFBI): expand the LPQ, then recurse into each
// child LPQ in FIFO order.
func (r *run) dfbi(q *lpq) error {
	children, err := r.expandAndPrune(q)
	if err != nil {
		return err
	}
	for _, c := range children {
		if err := r.dfbi(c); err != nil {
			return err
		}
	}
	return nil
}

// expandAndPrune is Algorithm 4: a node owner's candidates are distributed
// over the LPQs of its children (Expand and Filter Stages); an object
// owner runs the Gather Stage.
func (r *run) expandAndPrune(q *lpq) ([]*lpq, error) {
	if q.owner.IsObject() {
		return nil, r.gather(q)
	}
	children, err := r.ir.Expand(q.owner)
	if err != nil {
		return nil, err
	}
	// Lemma 3.2: the parent's bound is valid for every child owner.
	inherited := q.bound()
	lpqcs := make([]*lpq, len(children))
	for i := range children {
		lpqcs[i] = &lpq{owner: &children[i], inherited: inherited, cached: inherited, k: q.k}
	}
	offer := func(cand *index.Entry) {
		for _, c := range lpqcs {
			r.probe(c, cand, math.Inf(1))
		}
	}
	for {
		// The queue is MIND-ordered: the first entry beyond every child's
		// bound ends the stage.
		maxBound := math.Inf(-1)
		for _, c := range lpqcs {
			if b := c.slackBound(); b > maxBound {
				maxBound = b
			}
		}
		it, ok := q.dequeue()
		if !ok || it.mind > maxBound {
			break
		}
		if it.e.IsObject() {
			offer(it.e) // an object cannot be expanded further
			continue
		}
		cands, err := r.is.Expand(it.e)
		if err != nil {
			return nil, err
		}
		for ci := range cands {
			offer(&cands[ci])
		}
	}
	out := lpqcs[:0]
	for _, c := range lpqcs {
		if len(c.items) > 0 {
			out = append(out, c)
		} else if c.owner.Count > 0 {
			return nil, fmt.Errorf("paperref: child LPQ starved for owner %v", c.owner.MBR)
		}
	}
	return out, nil
}

// probe is Distances() plus the enqueue of Algorithm 4: MIND is tested
// first — against cutoff (the Gather Stage's k-th best so far, +Inf
// elsewhere) and the LPQ's bound — and MAXD, the pruning metric, only for
// survivors. Between two objects the exact distance is both.
func (r *run) probe(c *lpq, cand *index.Entry, cutoff float64) {
	r.calcs++
	owner := c.owner
	var mind float64
	switch {
	case owner.IsObject() && cand.IsObject():
		mind = geom.DistSq(owner.Point, cand.Point)
	case owner.IsObject():
		mind = geom.MinDistPointRectSq(owner.Point, cand.MBR)
	case cand.IsObject():
		mind = geom.MinDistPointRectSq(cand.Point, owner.MBR)
	default:
		mind = geom.MinDistSq(owner.MBR, cand.MBR)
	}
	if mind >= cutoff || mind > c.slackBound() {
		return
	}
	var maxd float64
	switch {
	case owner.IsObject() && cand.IsObject():
		maxd = mind
	case cand.IsObject():
		// Every owner point is guaranteed this neighbor within the maximum
		// distance; both metrics coincide.
		maxd = geom.MaxDistPointRectSq(cand.Point, owner.MBR)
	default:
		maxd = r.metric.BoundSq(owner.MBR, cand.MBR)
	}
	c.enqueue(item{e: cand, mind: mind, maxd: maxd})
}

// gather is the Gather Stage: the owner is a query object, and its LPQ is
// drained best-first — re-expanding candidate nodes into it — until the k
// nearest objects are known.
func (r *run) gather(q *lpq) error {
	best := pq.NewKBest[*index.Entry](q.k)
	for {
		it, ok := q.dequeue()
		// MIND-ordered queue: nothing closer than it.mind remains.
		if !ok || it.mind >= best.Worst() {
			break
		}
		if it.e.IsObject() {
			best.Add(it.mind, it.e) // mind is the exact squared distance
			continue
		}
		cands, err := r.is.Expand(it.e)
		if err != nil {
			return err
		}
		for ci := range cands {
			r.probe(q, &cands[ci], best.Worst())
		}
	}
	me := q.owner
	neighbors := make([]core.Neighbor, 0, r.k)
	selfSeen := false
	for _, it := range best.Items() {
		if r.excludeSelf && !selfSeen && it.Value.Object == me.Object {
			selfSeen = true
			continue
		}
		if len(neighbors) == r.k {
			break
		}
		neighbors = append(neighbors, core.Neighbor{ID: uint64(it.Value.Object), Point: it.Value.Point, Dist: math.Sqrt(it.Key)})
	}
	return r.emit(core.Result{ID: uint64(me.Object), Point: me.Point, Neighbors: neighbors})
}

// item is one candidate entry of I_S queued in an LPQ with its squared
// MIND (lower bound) and MAXD (pruning metric) relative to the owner.
type item struct {
	e          *index.Entry
	mind, maxd float64
}

// lpq is the paper's Local Priority Queue: the surviving candidates of one
// entry of I_R, ordered by MIND (ties by MAXD). Its bound (LPQ.MAXD) is
// min(inherited, bound of the current members): the smallest member MAXD
// for k = 1 — every member roots a subtree guaranteeing one point within
// its MAXD — and the largest once at least k members are queued for
// k > 1. The member part loosens when members are dequeued, which is
// where a loose metric (MAXMAXDIST) keeps hurting while NXNDIST does not.
// It is re-derived after a dequeue and when a member arrives below it; a
// member arriving above it leaves it standing until then.
type lpq struct {
	owner     *index.Entry
	items     []item
	inherited float64
	cached    float64 // current bound; dirty marks it for re-derivation
	dirty     bool
	k         int
}

func (q *lpq) bound() float64 {
	if q.dirty {
		q.dirty = false
		q.cached = q.inherited
		if q.k == 1 {
			for _, it := range q.items {
				if it.maxd < q.cached {
					q.cached = it.maxd
				}
			}
		} else if len(q.items) >= q.k {
			largest := q.items[0].maxd
			for _, it := range q.items[1:] {
				if it.maxd > largest {
					largest = it.maxd
				}
			}
			q.cached = min(q.cached, largest)
		}
	}
	return q.cached
}

// boundSlack (core's value) keeps alive a candidate whose MIND lands an ulp
// beyond the bound: metric and point distance round differently.
const boundSlack = 1e-12

func (q *lpq) slackBound() float64 {
	b := q.bound()
	return b + b*boundSlack
}

// enqueue inserts a candidate whose MIND passed the bound, re-derives the
// bound when the new member is below it, and applies the Filter Stage:
// everything past the first item with MIND beyond the bound is dropped.
func (q *lpq) enqueue(it item) {
	pos := sort.Search(len(q.items), func(i int) bool {
		if q.items[i].mind != it.mind {
			return q.items[i].mind > it.mind
		}
		return q.items[i].maxd > it.maxd
	})
	q.items = append(q.items, item{})
	copy(q.items[pos+1:], q.items[pos:])
	q.items[pos] = it
	if it.maxd < q.cached {
		q.dirty = true
	}
	bound := q.slackBound()
	q.items = q.items[:sort.Search(len(q.items), func(i int) bool { return q.items[i].mind > bound })]
}

// dequeue pops the smallest-MIND candidate; the bound no longer counts it.
func (q *lpq) dequeue() (item, bool) {
	if len(q.items) == 0 {
		return item{}, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	q.dirty = true
	return it, true
}
