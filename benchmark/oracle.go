package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"allnn/ann"
	"allnn/internal/bruteforce"
	"allnn/internal/geom"
	"allnn/internal/index"
)

// tol is the relative distance tolerance of the oracle comparison. The
// engine and the oracle both accumulate squared distances in ascending
// dimension order, so they agree to the last bit in practice.
const tol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(b)) }

// verdict counts oracle checks; notes keeps the first few mismatches for
// the report.
type verdict struct {
	checked, wrong int
	notes          []string
}

func (v *verdict) fail(format string, args ...any) {
	v.wrong++
	if len(v.notes) < 5 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) add(o verdict) {
	v.checked += o.checked
	v.wrong += o.wrong
	v.notes = append(v.notes, o.notes...)
}

// dataset wraps points whose ids are their positions.
func dataset(pts []ann.Point) bruteforce.Dataset { return bruteforce.FromPoints(toGeom(pts)) }

// judge re-derives every answer by exhaustive scan over data and counts
// the ones the stack got wrong. Every returned neighbor must be
// consistent with its own coordinates (coords resolves an id) and in
// ascending order. In exact mode the distances must equal the oracle's,
// rank by rank. In one-sided mode — reads that raced a writer, judged
// against the points that were never deleted, a subset of whatever
// snapshot the read saw — the k-th distance may only be smaller.
func judge(what string, answers []answer, data bruteforce.Dataset, k int, excludeSelf, oneSided bool, coords func(uint64) (ann.Point, bool)) verdict {
	halves := [2]verdict{}
	var wg sync.WaitGroup
	for h := range halves {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			part := answers[h*len(answers)/2 : (h+1)*len(answers)/2]
			r := bruteforce.Dataset{IDs: make([]index.ObjectID, len(part)), Points: make([]geom.Point, len(part))}
			for i, a := range part {
				r.IDs[i], r.Points[i] = index.ObjectID(a.ID), geom.Point(a.Q)
			}
			want := bruteforce.AkNN(r, data, k, excludeSelf)
			v := &halves[h]
			for i, a := range part {
				v.checked++
				judgeOne(v, what, a, want[i].Neighbors, excludeSelf, oneSided, coords)
			}
		}(h)
	}
	wg.Wait()
	halves[0].add(halves[1])
	return halves[0]
}

func judgeOne(v *verdict, what string, a answer, want []bruteforce.Neighbor, excludeSelf, oneSided bool, coords func(uint64) (ann.Point, bool)) {
	prev := 0.0
	for rank, n := range a.Nbs {
		p, ok := coords(n.ID)
		switch {
		case !ok:
			v.fail("%s: row %d returned unknown id %d", what, a.ID, n.ID)
			return
		case !near(geom.Dist(geom.Point(a.Q), geom.Point(p)), n.Dist):
			v.fail("%s: row %d neighbor %d reports dist %g, its coordinates give %g", what, a.ID, n.ID, n.Dist, geom.Dist(geom.Point(a.Q), geom.Point(p)))
			return
		case n.Dist < prev:
			v.fail("%s: row %d neighbors not ascending at rank %d", what, a.ID, rank)
			return
		case excludeSelf && n.ID == a.ID:
			v.fail("%s: row %d lists itself", what, a.ID)
			return
		}
		prev = n.Dist
	}
	if oneSided {
		if len(a.Nbs) < len(want) {
			v.fail("%s: row %d returned %d neighbors, at least %d exist", what, a.ID, len(a.Nbs), len(want))
		} else if last := len(want) - 1; last >= 0 && a.Nbs[last].Dist > want[last].Dist && !near(a.Nbs[last].Dist, want[last].Dist) {
			v.fail("%s: row %d rank %d dist %g exceeds the oracle's %g", what, a.ID, last, a.Nbs[last].Dist, want[last].Dist)
		}
		return
	}
	if len(a.Nbs) != len(want) {
		v.fail("%s: row %d returned %d neighbors, oracle has %d", what, a.ID, len(a.Nbs), len(want))
		return
	}
	for rank := range want {
		if !near(a.Nbs[rank].Dist, want[rank].Dist) {
			v.fail("%s: row %d rank %d dist %g, oracle %g", what, a.ID, rank, a.Nbs[rank].Dist, want[rank].Dist)
			return
		}
	}
}

// positional resolves ids that are positions in pts.
func positional(pts []ann.Point) func(uint64) (ann.Point, bool) {
	return func(id uint64) (ann.Point, bool) {
		if id >= uint64(len(pts)) {
			return nil, false
		}
		return pts[id], true
	}
}

// logical is the point set a write history leaves behind, as an oracle
// dataset: base minus deleted plus live inserts.
func logical(base []ann.Point, log *writeLog) bruteforce.Dataset {
	var d bruteforce.Dataset
	for i, p := range base {
		if !log.deletedBase[uint64(i)] {
			d.IDs, d.Points = append(d.IDs, index.ObjectID(i)), append(d.Points, geom.Point(p))
		}
	}
	for id, p := range log.live {
		d.IDs, d.Points = append(d.IDs, index.ObjectID(id)), append(d.Points, geom.Point(p))
	}
	return d
}

// judgeQuiesced asks c for exact kNN answers once the writer has
// stopped and checks them against the logical point set.
func judgeQuiesced(ctx context.Context, c conn, base []ann.Point, log *writeLog, seed int64) verdict {
	rng := rand.New(rand.NewSource(seed))
	set := logical(base, log)
	coords := make(map[uint64]ann.Point, len(set.IDs))
	for i, id := range set.IDs {
		coords[uint64(id)] = ann.Point(set.Points[i])
	}
	var answers []answer
	var v verdict
	for i := 0; i < 200; i++ {
		q := ann.Point(set.Points[rng.Intn(len(set.Points))])
		nbs, err := c.KNN(ctx, q, mixK)
		if err != nil {
			v.checked++
			v.fail("quiesced kNN: %v", err)
			continue
		}
		answers = append(answers, keep(q, 0, nbs))
	}
	v.add(judge("quiesced kNN", answers, set, mixK, false, false, func(id uint64) (ann.Point, bool) {
		p, ok := coords[id]
		return p, ok
	}))
	return v
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// recovery is what the durability step observed.
type recovery struct {
	verdict
	openS    float64
	replayed uint64
}

// judgeDurability copies the live index's page file and write-ahead log
// as they are on disk — the index is still open and has not been told to
// flush — opens the copy, which runs crash recovery, and requires the
// recovered index to hold exactly the acknowledged history: every base
// point not deleted and every insert not deleted since, at its
// coordinates, and nothing else.
func judgeDurability(pageFile string, base []ann.Point, log *writeLog, rec *recorder) recovery {
	var r recovery
	r.checked = 1
	cp := pageFile + ".crash"
	defer os.Remove(cp)
	defer os.Remove(cp + ".wal")
	if err := copyFile(cp, pageFile); err != nil {
		r.fail("durability: %v", err)
		return r
	}
	if err := copyFile(cp+".wal", pageFile+".wal"); err != nil {
		r.fail("durability: %v", err)
		return r
	}
	sp := rec.start("ann.OpenIndex", 0, 0)
	start := time.Now()
	ix, err := ann.OpenIndex(cp, ann.IndexConfig{})
	r.openS = time.Since(start).Seconds()
	rec.end(sp)
	if err != nil {
		r.fail("durability: recovery failed: %v", err)
		return r
	}
	defer ix.Close()
	r.replayed = ix.Stats().WALReplayed

	lo, hi := make(ann.Point, len(base[0])), make(ann.Point, len(base[0]))
	for d := range lo {
		lo[d], hi[d] = math.Inf(-1), math.Inf(1)
	}
	ids, pts, err := ix.RangeSearchWithPoints(lo, hi)
	if err != nil {
		r.fail("durability: scan of recovered index: %v", err)
		return r
	}
	want := logical(base, log)
	expect := make(map[uint64]geom.Point, len(want.IDs))
	for i, id := range want.IDs {
		expect[uint64(id)] = want.Points[i]
	}
	if len(ids) != len(expect) {
		r.fail("durability: recovered index holds %d points, acknowledged history has %d", len(ids), len(expect))
	}
	for i, id := range ids {
		p, ok := expect[id]
		if !ok {
			r.fail("durability: recovered index holds id %d, which was deleted or never inserted", id)
		} else if !p.Equal(geom.Point(pts[i])) {
			r.fail("durability: id %d recovered at %v, acknowledged at %v", id, pts[i], p)
		}
		delete(expect, id)
	}
	for id := range expect {
		r.fail("durability: acknowledged id %d is missing after recovery", id)
	}
	return r
}
