GO ?= go

.PHONY: build test race vet fmt-check check loc bench-smoke bench-spine-smoke bench-ab trace-smoke fuzz-corpus pagehash chaos chaos-recover churn-table pool-replay fuzz-smoke race-sched race-router serve-smoke obs-serve-smoke router-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fmt-check fails when any Go file of the root module or of the nested
# benchmark/ module (gofmt walks directories, not modules) is not
# gofmt-clean, and names the files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# check is what CI runs: formatting, vet plus the full suite under the
# race detector, plus a one-iteration pass over every benchmark so they
# cannot rot.
check: fmt-check vet race bench-smoke trace-smoke

# loc prints the size figures ROADMAP tracks at every re-anchor: Go lines
# outside benchmark/ (a module of its own) and the ignored .bench_build/,
# non-test and test, the two long documents, and the lines of the public
# ann API's `go doc -short` listing.
GOFILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*'
loc:
	@echo "non-test Go lines outside benchmark/: $$($(GOFILES) -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test Go lines outside benchmark/:     $$($(GOFILES) -name '*_test.go' | xargs cat | wc -l)"
	@wc -l DESIGN.md EXPERIMENTS.md | head -2
	@echo "go doc -short ./ann lines:            $$($(GO) doc -short ./ann | wc -l)"

# chaos runs the fault-injection suite under the race detector: thousands
# of queries over a store that fails 1% of reads, corruption surfacing,
# and mid-query cancellation — asserting classified errors and zero
# leaked pins throughout.
chaos:
	$(GO) test -race -run 'Chaos|Cancel' -count=1 ./internal/... ./ann/

# chaos-recover runs the durability suite under the race detector:
# kill-9-style crash loops sweeping the failure point across every WAL
# write, fsync, and checkpoint page write — over a scenario of a few
# batches and over one of two 22-batch stretches between checkpoints, in
# which pages are freed and claimed again with no fence — (recovered
# state must be byte-identical to a never-crashed reference), a writer
# going on after a checkpoint that failed at its last sync, concurrent
# insert batches against parallel snapshot-isolated queries — joins, and
# kNN probes reading pages in place under a 64-frame pool — on
# GOMAXPROCS=4, MBRQT's copy-on-write conformance and snapshot
# release, close under readers (an index, and a served index, closed
# while a join over it streams), and the constant-cardinality churn
# plateau, within one process and across close/open rounds.
chaos-recover:
	GOMAXPROCS=4 $(GO) test -race -count=1 \
		-run 'ChaosCrashRecovery|RecoveryAfterCrash|FailedCheckpoint|WriteFailedClassification|ConcurrentWritesAndQueries|KNNReadersBesideWriter|SnapshotIsolation|RebuildFree|ChurnPlateau|ChurnAcrossReopen|CloseWaitsForReaders|CloseIndexWaitsForJoin' \
		./ann/ ./internal/index/... ./internal/mbrqt ./internal/server

# churn-table logs EXPERIMENTS.md's "Churn and the fence cadence" table:
# 2 000 constant-cardinality batches, store pages fresh → final, in
# memory and file-backed with a checkpoint every 1, 10 and 400 batches
# (≈ 10 s; it asserts nothing — TestChurnPlateau bounds the same rows
# over 300 batches — and skips itself unless -run names it).
churn-table:
	$(GO) test -count=1 -run TestChurnTable -v ./ann/

# pool-replay logs ROADMAP item 17's table: four self-joins behind the
# paper's 64-frame pool (Fig 3(a)'s TAC, TAC 200 K, and Fig 6's FC at
# k = 10 and 50), each with its index's pages in file (a layout
# regression shows here first), its pins, distinct pages, and the misses of
# plain LRU, of the pool as shipped (the engine's page hints), of the
# dead-page oracle and of Belady (≈ 5 s; it asserts nothing —
# TestPinReplay pins one smaller join — and skips itself unless -run
# names it).
pool-replay:
	$(GO) test -count=1 -run TestPoolReplayTable -v ./internal/core

# fuzz-corpus regenerates the wire seed corpora from the sample frame
# lists (corpus_test.go) after a protocol change; curated legacy-*
# seeds are preserved.
fuzz-corpus:
	$(GO) test ./internal/wire -run TestRefreshFuzzCorpus -write-corpus

# pagehash regenerates the MBRQT bulk-load page digests
# (internal/mbrqt/testdata/pagehash) after a change that moves records
# on purpose; TestBulkLoadPageFilePinned checks them on every test run.
pagehash:
	$(GO) test ./internal/mbrqt -run TestBulkLoadPageFilePinned -write-pagehash

# fuzz-smoke gives each decode fuzzer a short budget on top of the
# checked-in corpora (which every plain `go test` already replays).
# `go test -fuzz` accepts one matching target per invocation, hence one
# line each. The mbrqt and rstar decoder targets also run every input
# through the in-place node visitor and the point-query scan kernels;
# FuzzVisit feeds them whole pages. FuzzDecodeReport is the client's
# JSON decode of a join report and a stats reply. FuzzBoundsAgainstExact
# is not a decoder: it holds geom's pruning bounds (MINMINDIST,
# MAXMAXDIST, NXNDIST, point–rect) to their exact big.Rat values,
# FuzzDistSqBlock holds the block distance kernel to the scalar sum, bit
# for bit, and FuzzLeafJoinMatchesScalar holds the leaf join's fused
# distance-and-admit loops to the one-pair-at-a-time oracle.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzBoundsAgainstExact -fuzztime=5s ./internal/geom
	$(GO) test -run=NONE -fuzz=FuzzDistSqBlock -fuzztime=5s ./internal/geom
	$(GO) test -run=NONE -fuzz=FuzzLeafJoinMatchesScalar -fuzztime=5s ./internal/core
	$(GO) test -run=NONE -fuzz=FuzzDecodeRecord -fuzztime=5s ./internal/mbrqt
	$(GO) test -run=NONE -fuzz=FuzzRecordFromPage -fuzztime=5s ./internal/mbrqt
	$(GO) test -run=NONE -fuzz=FuzzVisit -fuzztime=5s ./internal/mbrqt
	$(GO) test -run=NONE -fuzz=FuzzDecodeNode -fuzztime=5s ./internal/rstar
	$(GO) test -run=NONE -fuzz=FuzzDecodeRequest -fuzztime=5s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeResponse -fuzztime=5s ./internal/wire
	$(GO) test -run=NONE -fuzz=FuzzDecodeReport -fuzztime=5s ./ann/client
	$(GO) test -run=NONE -fuzz=FuzzDecodeWALRecord -fuzztime=5s ./internal/storage

# race-router runs the router suite five times under the race detector:
# the scatter legs, backend pools, breaker and failure paths are where a
# race would hide, and one run rarely shows it.
race-router:
	$(GO) test -race -count=5 ./internal/router

# serve-smoke boots the real annserve daemon on a temp index, drives a
# batched kNN, a streamed self-join and a streamed box query through the
# client, and asserts byte parity with direct library calls plus a clean
# SIGTERM drain.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/annserve

# router-smoke boots the real annrouter daemon over two in-process
# annserve shards (shard-map file, flags, signal handling), asserts
# routed kNN, self-join and box-query byte parity against direct library
# calls on the curve-ordered dataset and the served shard map against
# the map file, and delivers a SIGTERM for a clean drain.
router-smoke:
	$(GO) test -run TestRouterSmoke -count=1 -v ./cmd/annrouter

# obs-serve-smoke boots the daemon with the full observability surface
# (slow-query ring, access log, debug endpoints, Prometheus exposition)
# and runs a traced WantReport join end to end, asserting the report,
# the debug JSON, and the exposition before a clean SIGTERM drain.
obs-serve-smoke:
	$(GO) test -run TestObsServeSmoke -count=1 -v ./cmd/annserve

# bench-smoke runs every benchmark of every package once — the root
# suite's BenchmarkPointKNN (single probes, batches of 64, 10-D) and
# BenchmarkRangeSearch (both trees, in memory and behind 64 frames),
# ann/client's BenchmarkClientRoundTrip (one served KNN k=10 and one
# BatchKNN of 64 over loopback: µs and allocs per op; a streamed
# SelfJoin k=4 of 20 000 points: allocs per row, ≈ 1, and rows/s),
# internal/router's BenchmarkRoutedMix (the routed point mix: median
# kNN and batch latency, goroutines spawned per request),
# BenchmarkRoutedJoin (a 4-shard self-join at k=4: rows/s and the peak
# live heap), internal/mbrqt's BenchmarkBulkLoad (the TAC-like 200 K 2-D
# and FC-like 40 K 10-D index builds: time, bytes and allocations per
# load) and internal/curve's BenchmarkPartition (200 K clustered points
# into 4 Hilbert shards) included.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-spine-smoke vets and tests the benchmark spine, a Go module of its
# own (benchmark/) that the root `go test ./...` neither builds nor runs:
# all five workloads at 1/50 size with the brute-force oracle on. Run it
# after changing any package the benchmark imports.
bench-spine-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-ab is the paired runner a performance claim is shown with: it
# unpacks refs A and B (`.` is the working tree) under .bench_build/ab,
# alternates PAIRS runs of benchmark/run.sh from each, and prints per
# end-to-end metric both medians, their ratio, A's quartile distance and
# in how many pairs B read better.
#   make bench-ab A=HEAD~1 B=HEAD WORKLOAD=route_read PAIRS=10
A ?= HEAD
B ?= .
WORKLOAD ?= route_read
PAIRS ?= 10
bench-ab:
	tools/bench-ab.sh $(A) $(B) --workload $(WORKLOAD) --pairs $(PAIRS)

# trace-smoke validates the observability artifacts end to end: the
# engine's trace (setup/seed/traverse cover >= 95% of the query span,
# every filter span nests in an expand span, one lane per worker), the
# QueryReport against the registry, annquery's -trace file and -report
# count, and the declared metric family names.
trace-smoke:
	$(GO) test -run 'TestTraceSpanNesting|TestTraceParallelLanes|TestRunReportRegistryParity|TestRunTraceAndReport|TestDeclareMetricFamilies' -v ./internal/core ./cmd/annquery ./internal/bench

# race-sched runs the scheduler (claim order, interleaved splits, the
# parked-rows window, the emit-error and parked-cancel stops),
# fused-leaf-join and batch-kernel suites and the engine-vs-reference
# differential (serial and ordered-parallel against internal/paperref)
# under the race detector, plus one iteration of the AkNN leaf-join and
# peak-heap benchmarks — the fast, targeted version of `make race` for
# iterating on internal/core/parallel.go and mba.go. It also runs the
# bring-up's concurrent and table-driven code: the MBRQT bulk load
# planned on goroutines against the serial page file, the Hilbert table
# walk against the bit loop, and the radix-sorted curve partition
# against a comparator sort.
race-sched:
	$(GO) vet ./internal/core ./internal/geom ./internal/paperref ./internal/mbrqt ./internal/curve
	$(GO) test -race -run 'Scheduler|EmitTree|Parallel|CancelParked|BatchLeafJoin|FusedLeaf|DistSqBlock|CoreMatchesPaperRef|BulkLoadPlan|HilbertValueMatches|Partition' -bench 'LeafJoinAkNN|JoinPeakHeap' -benchtime 1x -count=1 ./internal/core ./internal/geom ./internal/paperref ./internal/mbrqt ./internal/curve
