package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"allnn/ann"
)

func TestMain(m *testing.M) {
	if err := loadSpec("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1/50 size, untraced and traced, with
// the oracle and durability checks on: the benchmark must keep building
// against the packages it drives, answer correctly, and report every
// metric BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			cfg := runConfig{w: w, seed: 7, seconds: 0.2, traced: traced, scale: 0.02, scratch: t.TempDir(), outDir: t.TempDir()}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d failed of %d attempted: %v", w.name, traced, rep.Failed, rep.Attempted, rep.Notes)
			}
			specs := spec.EndToEnd
			if traced {
				specs = spec.PerLayer
			}
			if len(rep.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d specified", w.name, traced, len(rep.Metrics), len(specs))
			}
			for _, ms := range specs {
				s, ok := rep.Metrics[ms.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, ms.Name)
				} else if !traced && s.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, ms.Name, s.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
				// The bypass predictions: a layer a workload does not reach
				// reports nothing.
				if w.shards == 0 && rep.Metrics["router.shards_contacted_per_knn"].N != 0 {
					t.Errorf("%s: router metrics outside the routed workload", w.name)
				}
				if w.join.NodeCacheBytes < 0 && rep.Metrics["nodecache.hit_rate"].Value != 0 {
					t.Errorf("%s: node cache hits with the cache off", w.name)
				}
			}
		}
	}
}

// failingWrites refuses every batch, as an index that latched
// WRITE_FAILED does.
type failingWrites struct{}

func (failingWrites) insert(context.Context, []uint64, []ann.Point) error {
	return errors.New("refused")
}
func (failingWrites) delete(context.Context, []uint64, []ann.Point) error {
	return errors.New("refused")
}

// TestWriterCountsRefusedBatches: a writer none of whose inserts is
// acknowledged has nothing of its own to delete; it must go on and count
// every refusal, so the run reports failed > 0 and not a crash.
func TestWriterCountsRefusedBatches(t *testing.T) {
	base := tac(7, 64)
	log := runWriter(context.Background(), failingWrites{}, base, 7, nil, 12, nil, nil, 0)
	if log.errs != 12 || len(log.inserted) != 0 {
		t.Errorf("writer counted %d failed batches of 12 and %d acknowledged inserts, want 12 and 0", log.errs, len(log.inserted))
	}
}

func TestFastSide(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if got := fastSide(xs, lower); got != 3 {
		t.Errorf("fastSide lower = %v, want the second lowest, 3", got)
	}
	if got := fastSide(xs, higher); got != 7 {
		t.Errorf("fastSide higher = %v, want the second highest, 7", got)
	}
	if got := fastSide(xs[:1], higher); got != 5 {
		t.Errorf("fastSide of one value = %v, want it", got)
	}
}
