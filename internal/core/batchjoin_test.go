package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
)

// probeOne is the scalar reference leaf join — the oracle the batch path
// (add + flush) is held to. It offers one candidate to every owner of the
// leaf with a plain early-abort distance loop against the live bounds and
// commits through the same accumulators, one candidate at a time.
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
		base := j.flat[i*j.dim : (i+1)*j.dim]
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

// runLeafJoin replays one leaf-join scenario — a fixed owner set and a
// fixed sequence of candidate batches — through either the batch kernel
// path or the scalar oracle. The batch path flushes only where flushAfter
// says so (and once at the end), maximising prefilter staleness; the
// commit pass must still reproduce the scalar decisions exactly.
func runLeafJoin(owners []index.Entry, leafOwner *index.Entry, inherited float64,
	k int, batches [][]index.Entry, flushAfter []bool, batch bool) joinOutcome {

	var stats Stats
	e := &engine{stats: &stats}
	q := newLPQ(leafOwner, inherited, k, &stats)
	stats = Stats{} // the leaf owner's own LPQ is not part of the comparison

	j := &e.join
	j.reset(e, q, owners, k)
	for bi, cands := range batches {
		for ci := range cands {
			if batch {
				j.add(&cands[ci])
			} else {
				probeOne(j, &cands[ci])
			}
		}
		if batch && flushAfter[bi] {
			j.flush()
		}
	}
	j.flush()

	out := joinOutcome{stats: stats, bounds: append([]float64(nil), j.bounds...)}
	for i := 0; i < j.m; i++ {
		n := j.fill[i]
		out.rowDist = append(out.rowDist, append([]float64(nil), j.dist[i*k:i*k+n]...))
		ids := make([]index.ObjectID, n)
		for x, r := range j.ref[i*k : i*k+n] {
			ids[x] = j.cands[r].Object
		}
		out.rowObj = append(out.rowObj, ids)
	}
	j.finish()
	return out
}

// TestBatchLeafJoinMatchesScalar is the property test for the batch
// kernel path: on random leaves (random owner counts, inherited bound,
// dimensions, k and candidate streams —
// including exact duplicates that tie at the k-th distance and streams
// long enough to force mid-batch tile flushes) the batch path must leave
// bit-identical accumulator rows, identical bounds and identical Stats to
// the scalar oracle.
func TestBatchLeafJoinMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for _, dim := range []int{2, 3, 7} {
		for _, k := range []int{1, 3, 10} {
			for trial := 0; trial < 25; trial++ {
				m := 1 + rng.Intn(70)
				owners := make([]index.Entry, m)
				lo := make(geom.Point, dim)
				hi := make(geom.Point, dim)
				for d := 0; d < dim; d++ {
					lo[d], hi[d] = math.Inf(1), math.Inf(-1)
				}
				for i := range owners {
					p := make(geom.Point, dim)
					for d := 0; d < dim; d++ {
						p[d] = rng.Float64()
						if p[d] < lo[d] {
							lo[d] = p[d]
						}
						if p[d] > hi[d] {
							hi[d] = p[d]
						}
					}
					owners[i] = index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(i),
						Point: p, MBR: geom.Rect{Lo: p, Hi: p}, Count: 1}
				}
				leafOwner := &index.Entry{Kind: index.NodeEntry, MBR: geom.Rect{Lo: lo, Hi: hi},
					Count: uint32(m)}
				// The leaf owner's LPQ bound every owner inherits: none,
				// tight or loose.
				var inherited float64
				switch rng.Intn(3) {
				case 0:
					inherited = math.Inf(1)
				case 1:
					inherited = 0.05 + 0.1*rng.Float64()
				default:
					inherited = 0.5 + rng.Float64()
				}

				nBatches := 1 + rng.Intn(4)
				batches := make([][]index.Entry, nBatches)
				flushAfter := make([]bool, nBatches)
				id := 1000
				for bi := range batches {
					n := 1 + rng.Intn(2*geom.BlockCandTile)
					cands := make([]index.Entry, n)
					for ci := range cands {
						var p geom.Point
						switch {
						case ci > 0 && rng.Intn(5) == 0:
							p = cands[rng.Intn(ci)].Point // duplicate: ties at every owner
						default:
							p = make(geom.Point, dim)
							for d := 0; d < dim; d++ {
								if rng.Intn(4) == 0 {
									p[d] = rng.Float64() * 10 // far: exercises the prefilter
								} else {
									p[d] = rng.Float64()
								}
							}
						}
						cands[ci] = index.Entry{Kind: index.ObjectEntry, Object: index.ObjectID(id),
							Point: p, MBR: geom.Rect{Lo: p, Hi: p}, Count: 1}
						id++
					}
					batches[bi] = cands
					flushAfter[bi] = rng.Intn(2) == 0
				}

				scalar := runLeafJoin(owners, leafOwner, inherited, k, batches, flushAfter, false)
				batched := runLeafJoin(owners, leafOwner, inherited, k, batches, flushAfter, true)
				if !reflect.DeepEqual(scalar, batched) {
					t.Fatalf("dim=%d k=%d trial=%d: batch path diverges from the scalar oracle:\nscalar: %+v\nbatch:  %+v",
						dim, k, trial, scalar, batched)
				}
			}
		}
	}
}
