package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"allnn/ann"
	"allnn/internal/storage"
)

// sample is one reported metric value with the number of observations
// behind it.
type sample struct {
	Value float64
	Unit  string
	N     int
}

type metrics map[string]sample

func (m metrics) set(name string, v float64, n int) { m[name] = sample{v, units[name], n} }

// provenance says where and from what a result came.
type provenance struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// Scale is the dataset size multiplier: 1 on every real run, less in
	// the smoke test.
	Scale float64 `json:"scale"`
	// Degraded is set when the host has fewer cores than the workloads
	// are sized for; numbers from such a run are not comparable.
	Degraded bool `json:"degraded"`
}

func collectProvenance(seed int64, scale float64) provenance {
	p := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Scale: scale, Degraded: runtime.NumCPU() < 2,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				p.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		p.Commit += dirty
	}
	return p
}

// check is the outcome of one correctness check.
type check struct {
	Name           string
	Checked, Wrong int
}

// report is the result of one run of one workload.
type report struct {
	Workload   string
	Traced     bool
	Provenance provenance
	Metrics    metrics
	// Attempted counts operations issued plus oracle checks made; Failed
	// counts errors, refusals and wrong answers among them.
	Attempted, Failed int
	Checks            []check
	Notes             []string
}

func (r *report) failShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func (r *report) judged(name string, v verdict) {
	r.Checks = append(r.Checks, check{name, v.checked, v.wrong})
	r.Attempted += v.checked
	r.Failed += v.wrong
	r.Notes = append(r.Notes, v.notes...)
}

// runConfig is one invocation.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	scale   float64 // 1 = the sizes in workloads.go
	scratch string  // page files, WALs, probe files
	outDir  string  // trace files
}

// setupRepeats is how many times an untraced run brings the stack up;
// setup_s is the median, and the last stack is the one measured.
const setupRepeats = 5

// timed is what the measured section of a run produced.
type timed struct {
	cycles    [][]mixOp // the mix's op cycle, one per client
	join      joinResult
	mix       mixResult
	writes    *writeLog
	joinStats [][2]ann.IndexStats // storage counters of the join indexes before and after each round's joins
	pinsMax   int64
	queueMax  int64
}

// rounds is how many slices the measured section gives the mix; the
// join passes are spread evenly between them. A slow spell on the shared
// host lasts ten to thirty seconds: with one join phase and one mix phase
// it only had to cover either to spoil it, and interleaved it leaves every
// metric the slices it did not reach (fastSide in stats.go takes it from
// there).
const rounds = 20

// runTimed is the measured section: one discarded warm-up pass of joins
// and a short discarded mix, then `rounds` rounds, `seconds` in total. A
// round makes join passes until the joins have had the workload's share of
// the time so far, then gives the mix an equal part of what is left. On a
// workload with a writer, the writer commits batches throughout and is
// quiesced before runTimed returns.
func runTimed(ctx context.Context, s *stack, seed int64, seconds float64, rec *recorder) timed {
	w := s.w
	var t timed
	t.cycles = genCycles(seed, len(s.mixConns), s.pts)
	reads := func() uint64 { return storageStats(s.joinIndexes).PoolReads }
	dur := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

	sp := rec.start("phase.warmup", 0, 0)
	new(joinResult).run(ctx, s.joinConn, w.joinKs, len(s.joinPts), 1, reads, rec, sp)
	new(mixResult).run(ctx, s.mixConns, t.cycles, dur(min(1, seconds/10)), rec, sp)
	rec.end(sp)

	stop, stopped := make(chan struct{}), make(chan struct{})
	if w.writer {
		var observe func() (uint64, int64)
		if rec != nil {
			observe = func() (uint64, int64) {
				fi, err := os.Stat(s.pageFile + ".wal")
				if err != nil {
					return 0, 0
				}
				return s.indexes[0].Stats().WALCheckpoints, fi.Size()
			}
		}
		go func() {
			defer close(stopped)
			sp := rec.start("phase.writer", 0, 0)
			t.writes = runWriter(ctx, remoteWrites{s.writer, "main"}, s.pts, seed, stop, 0, observe, rec, sp)
			rec.end(sp)
		}()
	} else {
		close(stopped)
	}

	// A traced run watches two gauges the layers export only as
	// instantaneous values.
	var sampler sync.WaitGroup
	if rec != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					t.pinsMax = max(t.pinsMax, storageStats(s.indexes).SnapshotPins, storageStats(s.joinIndexes).SnapshotPins)
					if s.serverReg != nil {
						t.queueMax = max(t.queueMax, s.serverReg.Snapshot().Gauges["server.queue_depth"])
					}
				}
			}
		}()
	}

	// The last pass of a round may take the joins past their share; the mix
	// still gets half of its own, and the run ends that much later.
	mixFloor := dur(seconds * (1 - w.joinShare) / rounds / 2)
	var joined time.Duration
	end := time.Now().Add(dur(seconds))
	for r := 0; r < rounds; r++ {
		sp := rec.start("phase.join", 0, int64(r+1))
		before := storageStats(s.joinIndexes)
		for due := dur(seconds * w.joinShare * float64(r+1) / rounds); joined < due; {
			start := time.Now()
			t.join.run(ctx, s.joinConn, w.joinKs, len(s.joinPts), 1, reads, rec, sp)
			joined += time.Since(start)
		}
		t.joinStats = append(t.joinStats, [2]ann.IndexStats{before, storageStats(s.joinIndexes)})
		rec.end(sp)
		sp = rec.start("phase.mix", 0, int64(r+1))
		t.mix.run(ctx, s.mixConns, t.cycles, max(mixFloor, time.Until(end)/time.Duration(rounds-r)), rec, sp)
		rec.end(sp)
	}

	close(stop)
	<-stopped
	sampler.Wait()
	return t
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's resident-set high-water mark from what is resident now, so the
// peak reported is that of the measured section: what set-up leaves
// behind as garbage depends on when the collector happened to run, and
// moved the mark by 10 % between identical runs. Where the kernel refuses,
// the mark keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload runs one workload once and returns its report. An
// untraced run reports the end-to-end metrics, a traced run the
// per-layer ones; both run every correctness check.
func runWorkload(cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	ctx := context.Background()
	w := cfg.w
	rep := &report{Workload: w.name, Traced: cfg.traced, Provenance: collectProvenance(cfg.seed, cfg.scale), Metrics: metrics{}}
	m := rep.Metrics

	var rec *recorder
	seconds := cfg.seconds
	untracedRate := 0.0
	if cfg.traced {
		// A traced run divides its seconds: a quarter goes to a bare stack
		// first, for the untraced rate the tracing bill is taken against,
		// half to the traced stack, and the probes take about the rest.
		s, err := bringUp(w, cfg.seed, cfg.scale, cfg.scratch, false)
		if err != nil {
			return nil, err
		}
		bare := runTimed(ctx, s, cfg.seed, seconds/4, nil)
		s.close()
		untracedRate = fastSide(bare.mix.rates, higher)
		seconds /= 2
		rec = newRecorder()
	}

	// Set-up: data generation, index build, listeners, connections.
	var s *stack
	var setupS []float64
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.close()
			debug.FreeOSMemory()
		}
		sp := rec.start("setup.bringUp", 0, 0)
		start := time.Now()
		var err error
		s, err = bringUp(w, cfg.seed, cfg.scale, cfg.scratch, cfg.traced)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer s.close()

	resetPeakRSS()
	t := runTimed(ctx, s, cfg.seed, seconds, rec)

	// Everything below is outside the timed section.
	rep.Attempted = t.mix.ops() + len(t.join.passes)*len(w.joinKs)
	rep.Failed = t.mix.errs + t.join.errs
	if t.writes != nil {
		rep.Attempted += len(t.writes.ackMs)
		rep.Failed += t.writes.errs
	}
	if !cfg.traced {
		m.set("setup_s", median(setupS), len(setupS))
		m.set("ops_per_s", fastSide(t.mix.rates, higher), t.mix.ops())
		m.set("knn_p50_ms", fastSide(t.mix.knnP50, lower), t.mix.knnN)
		m.set("batch_p50_ms", fastSide(t.mix.batchP50, lower), t.mix.batchN)
		m.set("join_rows_per_s", t.join.rowsPerS(), len(t.join.passes))
		m.set("join_cost_s", t.join.costS(), len(t.join.passes))
		m.set("peak_rss_mb", peakRSSMB(), 1)
	} else {
		if err := tracedMetrics(ctx, cfg, s, &t, untracedRate, rec, m); err != nil {
			return nil, err
		}
	}

	// Correctness. Reads that raced the writer are judged one-sidedly
	// against the base points the writer never deleted.
	data, coords, oneSided := dataset(s.pts), positional(s.pts), false
	joinData, joinCoords := dataset(s.joinPts), positional(s.joinPts)
	if t.writes != nil {
		oneSided = true
		data = logical(s.pts, &writeLog{deletedBase: t.writes.deletedBase})
		coords = func(id uint64) (ann.Point, bool) {
			if id < uint64(len(s.pts)) {
				return s.pts[id], true
			}
			p, ok := t.writes.inserted[id]
			return p, ok
		}
		joinData, joinCoords = data, coords
	}
	rep.judged("mix answers vs brute force", judge("mix", t.mix.answers, data, mixK, false, oneSided, coords))
	for i, k := range w.joinKs {
		rep.judged(fmt.Sprintf("join k=%d rows vs brute force", k),
			judge(fmt.Sprintf("join k=%d", k), t.join.sample[i], joinData, k, true, oneSided, joinCoords))
	}
	if t.writes != nil {
		rep.judged("kNN after quiesce vs logical set", judgeQuiesced(ctx, s.mixConns[0], s.pts, t.writes, cfg.seed))
		rcv := judgeDurability(s.pageFile, s.pts, t.writes, rec)
		rep.judged("recovery holds every acknowledged write", rcv.verdict)
		if cfg.traced {
			m.set("storage.recover_s", rcv.openS, 1)
			m.set("storage.replayed_records", float64(rcv.replayed), 1)
		}
	}

	if cfg.traced {
		for _, ms := range spec.PerLayer {
			if _, ok := m[ms.Name]; !ok {
				m.set(ms.Name, 0, 0) // the workload bypasses this layer
			}
		}
		if err := rec.write(cfg.outDir, w.name, rep.Provenance); err != nil {
			return nil, err
		}
	}
	for name := range m {
		if _, ok := units[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return rep, nil
}

// tracedMetrics fills the per-layer metrics: counter deltas the layers
// export, what the timed section recorded, and the probes that call one
// layer at a time.
func tracedMetrics(ctx context.Context, cfg runConfig, s *stack, t *timed, untracedRate float64, rec *recorder, m metrics) error {
	w := s.w
	m.set("obs.traced_ops_ratio", ratio(fastSide(t.mix.rates, higher), untracedRate), t.mix.ops())
	// A tail is what the slices typically saw, not what the best of them did.
	m.set("client.knn_p99_ms", median(t.mix.knnP99), t.mix.knnN)
	m.set("client.batch_p99_ms", median(t.mix.batchP99), t.mix.batchN)

	// Storage and node-cache counters over the rounds' joins.
	rows := 0.0
	for _, p := range t.join.passes {
		rows += float64(p.rows)
	}
	during := func(counter func(ann.IndexStats) uint64) float64 {
		sum := 0.0
		for _, around := range t.joinStats {
			sum += float64(counter(around[1]) - counter(around[0]))
		}
		return sum
	}
	hits := during(func(st ann.IndexStats) uint64 { return st.PoolHits })
	misses := during(func(st ann.IndexStats) uint64 { return st.PoolMisses })
	m.set("storage.pool_hit_rate", ratio(hits, hits+misses), int(hits+misses))
	m.set("storage.pool_evictions_per_row", ratio(during(func(st ann.IndexStats) uint64 { return st.PoolEvictions }), rows), int(rows))
	chits := during(func(st ann.IndexStats) uint64 { return st.CacheHits })
	cmisses := during(func(st ann.IndexStats) uint64 { return st.CacheMisses })
	m.set("nodecache.hit_rate", ratio(chits, chits+cmisses), int(chits+cmisses))
	m.set("nodecache.bytes_resident", float64(t.joinStats[len(t.joinStats)-1][1].CacheBytes), 1)
	m.set("ann.snapshot_pins_max", float64(t.pinsMax), 1)

	if len(w.joinKs) == 2 { // the AkNN pair
		m.set("ann.aknn10_rows_per_s", t.join.kRowsPerS(0, len(s.joinPts)), len(t.join.passes))
		m.set("ann.aknn50_rows_per_s", t.join.kRowsPerS(1, len(s.joinPts)), len(t.join.passes))
	}

	if s.pageFile != "" {
		var bytes int64
		for _, f := range []string{s.pageFile, s.pageFile + ".wal"} {
			if fi, err := os.Stat(f); err == nil {
				bytes += fi.Size()
			}
		}
		m.set("storage.amp", ratio(float64(bytes), float64(len(s.pts)*len(s.pts[0])*8)), 1)
	}

	// The mix again, same cycles and client count, with layers taken away:
	// straight into the index, and (routed stack) through one server over
	// the same points. The differences are the server's and the router's
	// share of a kNN.
	const probeSlices = 5
	probeDur := time.Duration(cfg.seconds / 12 / probeSlices * float64(time.Second))
	p50Through := func(name string, conns []conn) (float64, int) {
		sp := rec.start(name, 0, 0)
		defer rec.end(sp)
		var mix mixResult
		for i := 0; i < probeSlices; i++ {
			mix.run(ctx, conns, t.cycles, probeDur, nil, 0)
		}
		return fastSide(mix.knnP50, lower), mix.knnN
	}
	direct := make([]conn, len(s.mixConns))
	for i := range direct {
		direct[i] = directConn{s.direct, w.join}
	}
	directP50, n := p50Through("probe.direct_mix", direct)
	m.set("ann.knn_direct_us_p50", directP50*1e3, n)

	if w.served {
		servedP50, n := fastSide(t.mix.knnP50, lower), t.mix.knnN
		if s.single != nil {
			singleP50, _ := p50Through("probe.single_node_mix", s.single)
			m.set("router.overhead_us_p50", (servedP50-singleP50)*1e3, n)
			servedP50 = singleP50
		}
		m.set("server.overhead_us_p50", (servedP50-directP50)*1e3, n)

		rtt := make([]float64, 2000)
		for i := range rtt {
			start := time.Now()
			if _, err := s.probe.List(ctx); err != nil {
				return err
			}
			rtt[i] = us(time.Since(start))
		}
		m.set("client.rtt_floor_us_p50", median(rtt), len(rtt))

		s.access.mu.Lock()
		m.set("server.admission_wait_us_p99", quantile(s.access.waitsUs, 0.99), len(s.access.waitsUs))
		m.set("wire.bytes_in_per_op", ratio(float64(s.access.bytesIn), float64(s.access.requests)), int(s.access.requests))
		m.set("wire.bytes_out_per_op", ratio(float64(s.access.bytesOut), float64(s.access.requests)), int(s.access.requests))
		s.access.mu.Unlock()
		m.set("server.rejected", float64(s.serverReg.Counter("server.rejected").Value()), 1)
		m.set("server.queue_depth_max", float64(t.queueMax), 1)
	}

	if s.routerReg != nil {
		if err := routerMetrics(ctx, s, cfg.seed, m); err != nil {
			return err
		}
	}

	if t.writes != nil {
		if err := writeMetrics(ctx, cfg, s, t.writes, rec, m); err != nil {
			return err
		}
	}

	// A few direct ann joins, back to back, over the engine probe's points:
	// for the ann layer's share of a join, and for the page reads of a join
	// whose pool is in the state the join before it left — on the serial
	// workload that count repeats exactly, which a pass that follows a
	// time-bounded slice of the mix does not.
	enginePts, engineIx := s.joinPts, s.joinIndexes[0]
	if s.part != nil {
		enginePts = s.pts[:len(s.part.Shards[0].Points)] // shard 0, as joinIndexes[0] is
	}
	var annJoin joinResult
	annJoin.run(ctx, directConn{engineIx, w.join}, w.joinKs[:1], len(enginePts), enginePasses, func() uint64 { return engineIx.Stats().PoolReads }, rec, 0)
	last := annJoin.passes[enginePasses-1]
	m.set("storage.page_reads_per_row", ratio(float64(last.reads), float64(last.rows)), last.rows)
	annJoinS := last.wall.Seconds()
	for _, p := range annJoin.passes {
		annJoinS = min(annJoinS, p.wall.Seconds())
	}
	if err := probeEngine(ctx, s, enginePts, annJoinS, cfg.scratch, rec, m); err != nil {
		return err
	}
	return probeKernels(cfg.seed, cfg.scratch, rec, m)
}

// routerMetrics reads the router's registry around a kNN-only probe (so
// the per-kNN counts are exact) and around a routed join.
func routerMetrics(ctx context.Context, s *stack, seed int64, m metrics) error {
	reg := s.routerReg
	contacted, pruned := reg.Counter("router.shards_contacted"), reg.Counter("router.shards_pruned")
	rng := rand.New(rand.NewSource(seed))
	const probes = 500
	c0, p0 := contacted.Value(), pruned.Value()
	for i := 0; i < probes; i++ {
		if _, err := s.mixConns[0].KNN(ctx, s.pts[rng.Intn(len(s.pts))], mixK); err != nil {
			return err
		}
	}
	c1, p1 := contacted.Value(), pruned.Value()
	m.set("router.shards_contacted_per_knn", float64(c1-c0)/probes, probes)
	m.set("router.shards_pruned_share", ratio(float64(p1-p0), float64(c1-c0+p1-p0)), probes)
	if err := s.joinConn.SelfJoin(ctx, s.w.joinKs[0], func(ann.Result) {}); err != nil {
		return err
	}
	c2, p2 := contacted.Value(), pruned.Value()
	m.set("router.join_shards_pruned_share", ratio(float64(p2-p1), float64(c2-c1+p2-p1)), 1)

	snap := reg.Snapshot()
	var lat []float64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "router.shard.") && h.Count > 0 {
			lat = append(lat, h.P50/1e3)
		}
	}
	m.set("router.shard_latency_us_p50", median(lat), len(lat))
	if h := snap.Histograms["router.merge.streams"]; h.Count > 0 {
		m.set("router.merge_streams", h.Sum/float64(h.Count), int(h.Count))
	}
	return nil
}

// writeMetrics reports the write path of a workload with a writer: the
// served acknowledgement latency, the log's work per batch, checkpoint
// stalls, and the same batches committed with no server in the way.
func writeMetrics(ctx context.Context, cfg runConfig, s *stack, log *writeLog, rec *recorder, m metrics) error {
	n := len(log.ackMs)
	m.set("ann.write_ack_ms_p50", quantile(log.ackMs, 0.5), n)
	m.set("ann.write_ack_ms_p99", quantile(log.ackMs, 0.99), n)
	st := s.indexes[0].Stats()
	// The build's own checkpoint precedes the writer; one fsync and one
	// checkpoint are its.
	m.set("storage.wal_fsyncs_per_write", ratio(float64(st.WALFsyncs), float64(n)), n)
	m.set("storage.checkpoints", float64(st.WALCheckpoints), 1)
	m.set("storage.checkpoint_stall_ms_max", maxOf(log.ckptMs), len(log.ckptMs))
	m.set("storage.wal_bytes_per_user_byte", ratio(float64(log.walBytes), float64(log.userBytes)), n)

	// The log's group commit on its own: 16 appends, one fsync.
	wal, err := storage.CreateWAL(filepath.Join(cfg.scratch, "probe.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	syncMs := make([]float64, 200)
	for i := range syncMs {
		for j := 0; j < writeBatch; j++ {
			if err := wal.AppendInsert(uint64(i*writeBatch+j), s.pts[j]); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := wal.Sync(); err != nil {
			return err
		}
		syncMs[i] = ms(time.Since(start))
	}
	m.set("storage.wal_sync_ms_p50", median(syncMs), len(syncMs))

	// The writer's schedule against a bare file-backed index.
	file := filepath.Join(cfg.scratch, "direct.pages")
	os.Remove(file)
	os.Remove(file + ".wal")
	sp := rec.start("probe.direct_writes", 0, 0)
	defer rec.end(sp)
	ix, err := ann.BuildIndex(s.pts, ann.IndexConfig{PageFile: file, CheckpointEveryBytes: s.w.ckptEveryBytes})
	if err != nil {
		return err
	}
	defer ix.Close()
	direct := runWriter(ctx, directWrites{ix}, s.pts, cfg.seed, nil, 300, nil, nil, 0)
	if direct.errs > 0 {
		return fmt.Errorf("direct write probe: %d batches failed", direct.errs)
	}
	m.set("ann.insert_direct_ms_p50", median(direct.ackMs), len(direct.ackMs))
	return nil
}
