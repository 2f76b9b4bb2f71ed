package core

import (
	"fmt"
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/mbrqt"
)

// TestFCJoinPinned holds the 10-D leaf join to recorded answers: an FC
// 5 K self-join at k = 10 and k = 50, serial and at two workers with
// ordered emit, hashed row by row (ids and distance bits, in emission
// order). A change to the distance kernel, the accumulators or the
// commit order that moves one bit of one distance, or one tie, moves the
// hash. Serially the counters the leaf join keeps are pinned as well:
// the kernel's pair count and the probes, admissions and prunes it
// feeds.
func TestFCJoinPinned(t *testing.T) {
	tree, err := mbrqt.BulkLoad(newPool(1<<12), datagen.FCSurrogate(1, 5_000), nil, mbrqt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k                                      int
		hash                                   uint64
		distanceCalcs, enqueued, prunedOnProbe uint64
		kernelPairs                            uint64
	}{
		{10, 0xcc36936e02f9baba, 1_284_084, 229_564, 1_152_682, 1_232_214},
		{50, 0x7cf333e1d9a2d153, 1_562_394, 726_870, 830_088, 1_471_922},
	} {
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("k=%d/par=%d", c.k, par), func(t *testing.T) {
				var sched SchedStats
				opts := Options{K: c.k, ExcludeSelf: true, Parallelism: par, OrderedEmit: true, Sched: &sched}
				hash, stats := hashRun(t, tree, tree, opts)
				if hash != c.hash {
					t.Errorf("row hash %#x, pinned %#x", hash, c.hash)
				}
				if par != 1 {
					return
				}
				if stats.DistanceCalcs != c.distanceCalcs || stats.Enqueued != c.enqueued ||
					stats.PrunedOnProbe != c.prunedOnProbe || sched.KernelPairs != c.kernelPairs {
					t.Errorf("DistanceCalcs %d, Enqueued %d, PrunedOnProbe %d, KernelPairs %d; pinned %d, %d, %d, %d",
						stats.DistanceCalcs, stats.Enqueued, stats.PrunedOnProbe, sched.KernelPairs,
						c.distanceCalcs, c.enqueued, c.prunedOnProbe, c.kernelPairs)
				}
			})
		}
	}
}
