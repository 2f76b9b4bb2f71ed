package core

import (
	"context"
	"flag"
	"strings"
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/mbrqt"
	"allnn/internal/storage"
)

// The replays run a recorded pin sequence (storage.PinLog) through a cold
// pool of the given frames, each pin released before the next, and
// return the misses. The traversal, and so the sequence, is the same in
// every replay: only the choice of victim differs.

// replayLRU evicts the least recently used page, as BufferPool does
// without hints.
func replayLRU(pins []storage.PageID, frames int) int {
	return replay(pins, frames, nil, nil)
}

// replayDeadPage is LRU told, at every page's last pin, that the page is
// dead: the oracle the engine's hints try to match.
func replayDeadPage(pins []storage.PageID, frames int) int {
	next := nextPins(pins)
	return replay(pins, frames, func(i int) bool { return next[i] == len(pins) }, nil)
}

// replayBelady evicts the page whose next pin lies farthest ahead: the
// fewest misses any replacement policy can reach.
func replayBelady(pins []storage.PageID, frames int) int {
	return replay(pins, frames, nil, nextPins(pins))
}

// nextPins returns, for every pin, the index of the next pin of the same
// page, or len(pins) when there is none.
func nextPins(pins []storage.PageID) []int {
	next := make([]int, len(pins))
	seen := make(map[storage.PageID]int)
	for i := len(pins) - 1; i >= 0; i-- {
		next[i] = len(pins)
		if j, ok := seen[pins[i]]; ok {
			next[i] = j
		}
		seen[pins[i]] = i
	}
	return next
}

// replay keeps the resident pages most recently used first. With dead
// set, a pin it says is the page's last goes to the evict-first end. With
// next set, the victim is the page whose next pin is farthest; otherwise
// it is the last in the order.
func replay(pins []storage.PageID, frames int, dead func(int) bool, next []int) int {
	type res struct {
		id   storage.PageID
		next int
	}
	var order []res
	misses := 0
	for i, id := range pins {
		at := -1
		for j := range order {
			if order[j].id == id {
				at = j
				break
			}
		}
		if at < 0 {
			misses++
			if len(order) == frames {
				victim := len(order) - 1
				if next != nil {
					for j := range order {
						if order[j].next > order[victim].next {
							victim = j
						}
					}
				}
				order = append(order[:victim], order[victim+1:]...)
			}
		} else {
			order = append(order[:at], order[at+1:]...)
		}
		r := res{id: id}
		if next != nil {
			r.next = next[i]
		}
		if dead != nil && dead(i) {
			order = append(order, r)
		} else {
			order = append([]res{r}, order...)
		}
	}
	return misses
}

// recordSelfJoin bulk-loads pts, opens the index cold behind a pool of
// frames with a pin log attached, and runs a k-NN self-join with the node
// cache off. It returns the join's pins, the pool's misses and the pages
// in the index's file; the Open's read of the meta page is in neither of
// the first two.
func recordSelfJoin(t testing.TB, pts []geom.Point, frames, k int) ([]storage.PageID, uint64, int) {
	t.Helper()
	store := storage.NewMemStore()
	load := storage.NewBufferPool(store, 16384)
	built, err := mbrqt.BulkLoad(load, pts, nil, mbrqt.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := load.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(store, frames)
	tree, err := mbrqt.Open(pool, built.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()
	log := new(storage.PinLog)
	pool.SetPinLog(log)
	opts := Options{K: k, ExcludeSelf: true, NodeCacheBytes: NodeCacheDisabled}
	if _, err := RunContext(context.Background(), tree, tree, opts, func(Result) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return log.Pages(), pool.Stats().Misses, store.NumPages()
}

// TestPinReplay holds the engine's page hints to the replays of its own
// pins: a k = 1 self-join over 50 K TAC points behind 24 frames. The LRU
// replay is what the pool read before the join told it which pages it had
// finished with, so it pins the traversal's pin sequence; the pool's
// misses pin the hints; and no policy beats Belady.
func TestPinReplay(t *testing.T) {
	const (
		lruMisses  = 401 // the pool's misses without hints; 455 before the bulk load filled pages along the Hilbert curve
		poolMisses = 351 // with the hints; 406 then
	)
	pins, misses, _ := recordSelfJoin(t, datagen.TACSurrogate(1, 50_000), 24, 1)
	lru, belady := replayLRU(pins, 24), replayBelady(pins, 24)
	t.Logf("%d pins: LRU %d, pool %d, dead-page oracle %d, Belady %d",
		len(pins), lru, misses, replayDeadPage(pins, 24), belady)
	if lru != lruMisses {
		t.Errorf("LRU replay of the pins misses %d times, pinned %d: the traversal pins other pages", lru, lruMisses)
	}
	if misses != poolMisses {
		t.Errorf("the pool missed %d times, pinned %d", misses, poolMisses)
	}
	if !(uint64(belady) <= misses && misses < uint64(lru)) {
		t.Errorf("want Belady %d <= pool %d < LRU %d", belady, misses, lru)
	}
}

// TestPoolReplayTable logs the pool-replay table of ROADMAP item 17 for
// four self-joins behind the paper's 64-frame pool: the pages in the
// index's file, pins, distinct pages, and the misses of LRU, of the pool
// with the engine's hints (shipped), of the dead-page oracle and of
// Belady. It asserts nothing and skips itself unless -run names it (make
// pool-replay).
func TestPoolReplayTable(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "PoolReplayTable") {
		t.Skip("a table for EXPERIMENTS.md; run by make pool-replay")
	}
	rows := []struct {
		name string
		pts  []geom.Point
		k    int
	}{
		{"Fig 3(a), TAC 35 K, k = 1", datagen.TACSurrogate(1, 35_000), 1},
		{"TAC 200 K, k = 1", datagen.TACSurrogate(1, 200_000), 1},
		{"Fig 6, FC 29 K, k = 10", datagen.FCSurrogate(1, 29_000), 10},
		{"Fig 6, FC 29 K, k = 50", datagen.FCSurrogate(1, 29_000), 50},
	}
	const frames = 64
	t.Logf("| join | pages in file | pins | distinct pages | LRU | shipped | dead-page oracle | Belady |")
	t.Logf("|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		pins, misses, pages := recordSelfJoin(t, r.pts, frames, r.k)
		distinct := make(map[storage.PageID]bool)
		for _, id := range pins {
			distinct[id] = true
		}
		t.Logf("| %s | %d | %d | %d | %d | %d | %d | %d |", r.name, pages, len(pins), len(distinct),
			replayLRU(pins, frames), misses, replayDeadPage(pins, frames), replayBelady(pins, frames))
	}
}
