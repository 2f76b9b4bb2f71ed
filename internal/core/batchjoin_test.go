package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
)

// probeOne is the scalar reference leaf join — the oracle leafJoin.add is
// held to. It offers one candidate to every owner of the leaf with a
// plain early-abort distance loop over the owner's own point against the
// live bounds and commits through the same accumulators, one candidate
// at a time.
func probeOne(j *leafJoin, cand *index.Entry) {
	cp := cand.Point
	j.e.stats.DistanceCalcs++
	if geom.MinDistPointRectSq(cp, j.leafMBR) > j.maxOwnerBound {
		j.e.stats.PrunedOnProbe += uint64(j.m)
		return
	}
	j.e.stats.DistanceCalcs += uint64(j.m)
	ref := -1
	for i := 0; i < j.m; i++ {
		base := j.owners[i].Point
		limit := j.bounds[i]
		var s float64
		pruned := false
		for d := 0; d < j.dim; d++ {
			diff := base[d] - cp[d]
			s += diff * diff
			if s > limit {
				pruned = true
				break
			}
		}
		if pruned {
			j.e.stats.PrunedOnProbe++
			continue
		}
		ref = j.admit(i, s, cand, ref)
	}
}

// joinOutcome captures everything observable about a leaf join run: the
// work counters, every owner's accumulator row (candidate ids and exact
// distance bits, in slot order) and the final per-owner bounds.
type joinOutcome struct {
	stats   Stats
	rowDist [][]float64
	rowObj  [][]index.ObjectID
	bounds  []float64
}

// leafCase is one leaf-join scenario: the leaf's owners, the leaf owner
// entry whose MBR the prefilter reads, the bound every owner inherits, k
// and the candidate stream.
type leafCase struct {
	owners    []index.Entry
	leafOwner *index.Entry
	inherited float64
	k         int
	cands     []index.Entry
}

// randomLeaf draws a leafCase of m owners in dim dimensions: owners
// uniform in the unit cube; an inherited bound that is none, tight or
// loose; and a stream that mixes near candidates, far ones (the
// prefilter's rejects), exact duplicates of earlier candidates (ties at
// every owner, so slot k is decided by arrival) and copies of owners
// (distance zero, as in a self-join).
func randomLeaf(rng *rand.Rand, dim, m, k int) leafCase {
	owners := make([]index.Entry, m)
	lo := make(geom.Point, dim)
	hi := make(geom.Point, dim)
	for d := 0; d < dim; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for i := range owners {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float64()
			lo[d], hi[d] = min(lo[d], p[d]), max(hi[d], p[d])
		}
		owners[i] = index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(i),
			Point: p, MBR: geom.Rect{Lo: p, Hi: p}, Count: 1}
	}
	c := leafCase{owners: owners, k: k,
		leafOwner: &index.Entry{Kind: index.NodeEntry, MBR: geom.Rect{Lo: lo, Hi: hi}, Count: uint32(m)}}
	switch rng.Intn(3) {
	case 0:
		c.inherited = math.Inf(1)
	case 1:
		c.inherited = (0.05 + 0.1*rng.Float64()) * float64(dim)
	default:
		c.inherited = (0.5 + rng.Float64()) * float64(dim)
	}
	c.cands = make([]index.Entry, 1+rng.Intn(400))
	for ci := range c.cands {
		var p geom.Point
		switch r := rng.Intn(8); {
		case ci > 0 && r < 2:
			p = c.cands[rng.Intn(ci)].Point
		case r == 2:
			p = owners[rng.Intn(m)].Point
		default:
			p = make(geom.Point, dim)
			for d := range p {
				if rng.Intn(4) == 0 {
					p[d] = rng.Float64() * 10
				} else {
					p[d] = rng.Float64()
				}
			}
		}
		c.cands[ci] = index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(1000 + ci),
			Point: p, MBR: geom.Rect{Lo: p, Hi: p}, Count: 1}
	}
	return c
}

// run replays the scenario through leafJoin.add, or through the scalar
// oracle when scalar is set, and returns what it left.
func (c leafCase) run(scalar bool) joinOutcome {
	var stats Stats
	e := &engine{stats: &stats}
	q := newLPQ(c.leafOwner, c.inherited, c.k, &stats)
	stats = Stats{} // the leaf owner's own LPQ is not part of the comparison

	j := &e.join
	j.reset(e, q, c.owners, c.k)
	for ci := range c.cands {
		if scalar {
			probeOne(j, &c.cands[ci])
		} else {
			j.add(&c.cands[ci])
		}
	}
	out := joinOutcome{stats: stats, bounds: append([]float64(nil), j.bounds...)}
	for i := 0; i < j.m; i++ {
		n := j.fill[i]
		out.rowDist = append(out.rowDist, append([]float64(nil), j.dist[i*c.k:i*c.k+n]...))
		ids := make([]index.ObjectID, n)
		for x, r := range j.ref[i*c.k : i*c.k+n] {
			ids[x] = j.cands[r].Object
		}
		out.rowObj = append(out.rowObj, ids)
	}
	j.finish()
	return out
}

// checkLeafCase fails t when add and the scalar oracle part ways.
func checkLeafCase(t *testing.T, c leafCase) {
	t.Helper()
	scalar, fused := c.run(true), c.run(false)
	if !reflect.DeepEqual(scalar, fused) {
		t.Fatalf("dim=%d m=%d k=%d inherited=%g: add diverges from the scalar oracle:\nscalar: %+v\nadd:    %+v",
			len(c.owners[0].Point), len(c.owners), c.k, c.inherited, scalar, fused)
	}
}

// TestBatchLeafJoinMatchesScalar is the property test for the leaf join's
// distance loops: on random leaves the fused add must leave bit-identical
// accumulator rows, identical bounds and identical Stats to the scalar
// oracle. The dimensions cover the 2-D column loop and the four-owner
// body on either side of it, and the owner counts take every residue mod
// 4, so the four-owner body's scalar tail runs with 0 to 3 owners.
func TestBatchLeafJoinMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for _, dim := range []int{1, 2, 3, 10, 30} {
		for _, k := range []int{1, 3, 10} {
			for trial := 0; trial < 24; trial++ {
				m := 1 + 4*rng.Intn(18) + trial%4
				checkLeafCase(t, randomLeaf(rng, dim, m, k))
			}
		}
	}
}

// FuzzLeafJoinMatchesScalar is TestBatchLeafJoinMatchesScalar over
// fuzzer-chosen dimension, owner count, k and seed for the owners, the
// inherited bound and the candidate stream.
func FuzzLeafJoinMatchesScalar(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(5), uint8(1))
	f.Add(int64(2), uint8(10), uint8(67), uint8(10))
	f.Add(int64(3), uint8(3), uint8(8), uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, dimIn, mIn, kIn uint8) {
		dim, m, k := 1+int(dimIn)%32, 1+int(mIn)%80, 1+int(kIn)%64
		checkLeafCase(t, randomLeaf(rand.New(rand.NewSource(seed)), dim, m, k))
	})
}
