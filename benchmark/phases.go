package main

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"allnn/ann"
	"allnn/ann/client"
)

// nb is a returned neighbor reduced to what the oracle compares.
type nb struct {
	ID   uint64
	Dist float64
}

// answer is one recorded query with the neighbors the stack returned,
// kept for the oracle to judge after the timed section.
type answer struct {
	ID  uint64 // join rows: the row's object id
	Q   ann.Point
	Nbs []nb
}

func keep(q ann.Point, id uint64, nbs []ann.Neighbor) answer {
	a := answer{ID: id, Q: q, Nbs: make([]nb, len(nbs))}
	for i, n := range nbs {
		a.Nbs[i] = nb{n.ID, n.Dist}
	}
	return a
}

// mixOp is one point-query operation: a KNN when it has one query
// point, a BatchKNN otherwise.
type mixOp struct{ qs []ann.Point }

// genCycles draws each client's fixed operation cycle: of every
// batchEvery consecutive ops exactly one, at a seeded position, is a batch
// (a batch costs as much as 64 probes, so a slice of the cycle that held a
// few more of them would be a different workload); every query is a data
// point moved by a small seeded jitter, so answers are not all distance 0
// and queries stay where the data is.
func genCycles(seed int64, clients int, pts []ann.Point) [][]mixOp {
	cycles := make([][]mixOp, clients)
	for c := range cycles {
		cycles[c] = genOps(rand.New(rand.NewSource(seed+int64(c)*7919)), pts)
	}
	return cycles
}

func genOps(rng *rand.Rand, pts []ann.Point) []mixOp {
	dim := len(pts[0])
	jitter := make([]float64, dim)
	for d := range jitter {
		lo, hi := pts[0][d], pts[0][d]
		for i := 0; i < len(pts); i += 1 + len(pts)/1000 {
			lo, hi = min(lo, pts[i][d]), max(hi, pts[i][d])
		}
		jitter[d] = 1e-4 * (hi - lo)
	}
	query := func() ann.Point {
		p := pts[rng.Intn(len(pts))]
		q := make(ann.Point, dim)
		for d := range q {
			q[d] = p[d] + (2*rng.Float64()-1)*jitter[d]
		}
		return q
	}
	ops := make([]mixOp, opsPerCycle)
	batchAt := 0
	for i := range ops {
		if i%batchEvery == 0 {
			batchAt = i + rng.Intn(batchEvery)
		}
		n := 1
		if i == batchAt {
			n = batchSize
		}
		ops[i].qs = make([]ann.Point, n)
		for j := range ops[i].qs {
			ops[i].qs[j] = query()
		}
	}
	return ops
}

// mixResult is what the point-query mix measured, over one or more
// slices of time: per slice, latency quantiles pooled over the clients and
// the rate of completed operations.
type mixResult struct {
	knnP50, knnP99     []float64 // ms
	batchP50, batchP99 []float64 // ms
	rates              []float64 // operations per second
	knnN, batchN       int
	next               []int // per client, how far into its cycle it is
	errs               int
	answers            []answer
}

func (m *mixResult) ops() int { return m.knnN + m.batchN }

// sampleEvery is the stride at which mix answers are kept for the
// oracle (1 %); of a sampled batch, batchChecked of its queries are kept.
const (
	sampleEvery  = 100
	batchChecked = 4
)

// run drives each client's op cycle through its connection, closed loop,
// until dur has passed, and adds what it measured to m as one more slice.
// A client resumes its cycle where its last slice stopped. Spans go to rec
// (nil records nothing).
func (m *mixResult) run(ctx context.Context, conns []conn, cycles [][]mixOp, dur time.Duration, rec *recorder, parent int64) {
	if m.next == nil {
		m.next = make([]int, len(conns))
	}
	var knnMs, batchMs []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var knn, batch []float64
			var answers []answer
			i, errs := m.next[c], 0
			for ; time.Now().Before(deadline); i++ {
				op := cycles[c][i%len(cycles[c])]
				sampled := i%sampleEvery == 0
				req := int64(c)<<40 | int64(i+1)
				if len(op.qs) == 1 {
					sp := rec.start("client.KNN", parent, req)
					t := time.Now()
					nbs, err := conns[c].KNN(ctx, op.qs[0], mixK)
					knn = append(knn, ms(time.Since(t)))
					rec.end(sp)
					if err != nil {
						errs++
					} else if sampled {
						answers = append(answers, keep(op.qs[0], 0, nbs))
					}
				} else {
					sp := rec.start("client.BatchKNN", parent, req)
					t := time.Now()
					rs, err := conns[c].BatchKNN(ctx, op.qs, mixK)
					batch = append(batch, ms(time.Since(t)))
					rec.end(sp)
					if err != nil || len(rs) != len(op.qs) {
						errs++
					} else if sampled {
						for j := 0; j < batchChecked; j++ {
							at := j * (len(rs) - 1) / (batchChecked - 1)
							answers = append(answers, keep(op.qs[at], 0, rs[at].Neighbors))
						}
					}
				}
			}
			mu.Lock()
			knnMs, batchMs = append(knnMs, knn...), append(batchMs, batch...)
			m.next[c] = i
			m.answers = append(m.answers, answers...)
			m.errs += errs
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	m.rates = append(m.rates, ratio(float64(len(knnMs)+len(batchMs)), time.Since(start).Seconds()))
	if len(knnMs) > 0 {
		m.knnP50, m.knnP99 = append(m.knnP50, quantile(knnMs, 0.5)), append(m.knnP99, quantile(knnMs, 0.99))
	}
	if len(batchMs) > 0 { // a slice too short to hold a batch says nothing about batches
		m.batchP50, m.batchP99 = append(m.batchP50, quantile(batchMs, 0.5)), append(m.batchP99, quantile(batchMs, 0.99))
	}
	m.knnN += len(knnMs)
	m.batchN += len(batchMs)
}

// joinSampleRows is how many rows of a join the oracle re-derives.
const joinSampleRows = 500

// joinPass is one pass over the workload's join list (one join per k).
type joinPass struct {
	wall  time.Duration
	rows  int
	reads uint64 // page reads during the pass
	perK  []time.Duration
}

// joinResult is what the join phase measured; sample holds rows of the
// last pass, per k.
type joinResult struct {
	passes []joinPass
	errs   int
	sample [][]answer
}

// run makes n more passes of the workload's join list over c. reads
// returns the cumulative page reads of the indexes behind c. Every
// stride-th row id of the last pass is kept.
func (j *joinResult) run(ctx context.Context, c conn, ks []int, rows, n int, reads func() uint64, rec *recorder, parent int64) {
	stride := uint64(max(1, rows/joinSampleRows))
	for ; n > 0; n-- {
		pass := joinPass{perK: make([]time.Duration, len(ks))}
		j.sample = make([][]answer, len(ks))
		r0 := reads()
		for i, k := range ks {
			sp := rec.start("join.SelfJoin", parent, int64(len(j.passes)+1))
			t := time.Now()
			err := c.SelfJoin(ctx, k, func(r ann.Result) {
				pass.rows++
				if r.ID%stride == 0 && len(j.sample[i]) < 2*joinSampleRows {
					j.sample[i] = append(j.sample[i], keep(r.Point, r.ID, r.Neighbors))
				}
			})
			pass.perK[i] = time.Since(t)
			rec.end(sp)
			pass.wall += pass.perK[i]
			if err != nil {
				j.errs++
			}
		}
		pass.reads = reads() - r0
		j.passes = append(j.passes, pass)
	}
}

// rowsPerS is the rows a pass delivered per second, on the fast side of
// the passes.
func (j *joinResult) rowsPerS() float64 {
	var xs []float64
	for _, p := range j.passes {
		xs = append(xs, ratio(float64(p.rows), p.wall.Seconds()))
	}
	return fastSide(xs, higher)
}

// costS is the paper's total per pass, on the fast side of the passes:
// wall time plus one millisecond per page read.
func (j *joinResult) costS() float64 {
	var xs []float64
	for _, p := range j.passes {
		xs = append(xs, p.wall.Seconds()+float64(p.reads)*1e-3)
	}
	return fastSide(xs, lower)
}

// kRowsPerS is rowsPerS restricted to the i-th k of the pass.
func (j *joinResult) kRowsPerS(i, rowsPerJoin int) float64 {
	var xs []float64
	for _, p := range j.passes {
		xs = append(xs, ratio(float64(rowsPerJoin), p.perK[i].Seconds()))
	}
	return fastSide(xs, higher)
}

// writeLog is the history a writer committed: which base points it
// deleted, which inserted points are live, every point it ever inserted
// (reads racing the writer may return any of them), and the latency of
// each acknowledged batch.
type writeLog struct {
	ackMs       []float64
	errs        int
	inserted    map[uint64]ann.Point // every insert ever acknowledged
	live        map[uint64]ann.Point // inserted and not deleted since
	deletedBase map[uint64]bool
	userBytes   int
	// Filled only when the writer is given an observer (traced runs): the
	// latency of each batch during which a checkpoint completed, and the
	// bytes the write-ahead log grew by.
	ckptMs   []float64
	walBytes int64
}

// writeTarget is the mutation half of a stack: a served index through a
// client, or a bare one.
type writeTarget interface {
	insert(ctx context.Context, ids []uint64, pts []ann.Point) error
	delete(ctx context.Context, ids []uint64, pts []ann.Point) error
}

type remoteWrites struct {
	cl    *client.Client
	index string
}

func (w remoteWrites) insert(ctx context.Context, ids []uint64, pts []ann.Point) error {
	_, err := w.cl.Insert(ctx, w.index, ids, pts)
	return err
}
func (w remoteWrites) delete(ctx context.Context, ids []uint64, pts []ann.Point) error {
	_, _, err := w.cl.Delete(ctx, w.index, ids, pts)
	return err
}

type directWrites struct{ ix *ann.Index }

func (w directWrites) insert(_ context.Context, ids []uint64, pts []ann.Point) error {
	return w.ix.InsertBatch(ids, pts)
}
func (w directWrites) delete(_ context.Context, ids []uint64, pts []ann.Point) error {
	_, err := w.ix.DeleteBatch(ids, pts)
	return err
}

// runWriter commits the seeded batch schedule against t until stop is
// closed or maxBatches is reached (0 = no limit): insert, insert, delete,
// repeating, where deletes alternate between the oldest live inserted
// batch and a batch of base points. Inserted points are midpoints of two
// base points, so they lie inside the data's bounding box — the MBRQT
// root cell is fixed at build time and rejects anything outside it.
// observe, when set, returns the index's checkpoint count and its log's
// size; it is read after every batch.
func runWriter(ctx context.Context, t writeTarget, base []ann.Point, seed int64, stop <-chan struct{}, maxBatches int, observe func() (ckpts uint64, walSize int64), rec *recorder, parent int64) *writeLog {
	rng := rand.New(rand.NewSource(seed))
	log := &writeLog{inserted: map[uint64]ann.Point{}, live: map[uint64]ann.Point{}, deletedBase: map[uint64]bool{}}
	dim := len(base[0])
	nextID := uint64(len(base))
	basePerm := rng.Perm(len(base))
	var liveBatches [][]uint64
	var ckpts uint64
	var walSize int64
	if observe != nil {
		ckpts, walSize = observe()
	}
	for b := 0; maxBatches == 0 || b < maxBatches; b++ {
		select {
		case <-stop:
			return log
		default:
		}
		ids := make([]uint64, 0, writeBatch)
		pts := make([]ann.Point, 0, writeBatch)
		isInsert := b%3 != 2
		deleteBase := b%6 == 5 && len(basePerm) >= writeBatch
		if !deleteBase && len(liveBatches) == 0 {
			isInsert = true // no insert has been acknowledged yet: nothing of the writer's to delete
		}
		switch {
		case isInsert:
			for i := 0; i < writeBatch; i++ {
				p, q := base[rng.Intn(len(base))], base[rng.Intn(len(base))]
				m := make(ann.Point, dim)
				for d := range m {
					m[d] = (p[d] + q[d]) / 2
				}
				ids, pts = append(ids, nextID), append(pts, m)
				nextID++
			}
		case deleteBase:
			for _, i := range basePerm[:writeBatch] {
				ids, pts = append(ids, uint64(i)), append(pts, base[i])
			}
			basePerm = basePerm[writeBatch:]
		default:
			ids = liveBatches[0]
			liveBatches = liveBatches[1:]
			for _, id := range ids {
				pts = append(pts, log.live[id])
			}
		}
		sp := rec.start("client.Write", parent, int64(b+1))
		start := time.Now()
		var err error
		if isInsert {
			err = t.insert(ctx, ids, pts)
		} else {
			err = t.delete(ctx, ids, pts)
		}
		ack := ms(time.Since(start))
		log.ackMs = append(log.ackMs, ack)
		rec.end(sp)
		if observe != nil {
			c, size := observe()
			if c != ckpts {
				log.ckptMs = append(log.ckptMs, ack)
			} else if size > walSize {
				log.walBytes += size - walSize
			}
			ckpts, walSize = c, size
		}
		if err != nil {
			log.errs++
			continue
		}
		log.userBytes += len(ids) * (8 + 8*dim)
		for i, id := range ids {
			switch {
			case isInsert:
				log.inserted[id], log.live[id] = pts[i], pts[i]
			case id < uint64(len(base)):
				log.deletedBase[id] = true
			default:
				delete(log.live, id)
			}
		}
		if isInsert {
			liveBatches = append(liveBatches, ids)
		}
	}
	return log
}
