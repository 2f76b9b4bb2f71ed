package nodecache

import (
	"fmt"
	"sync"
	"testing"

	"allnn/internal/storage"
)

func TestGetPutBasics(t *testing.T) {
	c := NewSharded[string](1<<20, 1)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "one", 100)
	c.Put(2, "two", 100)
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.Entries != 2 || st.Bytes != 200 {
		t.Fatalf("residency = %d entries / %d bytes, want 2 / 200", st.Entries, st.Bytes)
	}
}

func TestPutReplaces(t *testing.T) {
	c := NewSharded[string](1<<20, 1)
	c.Put(7, "a", 100)
	c.Put(7, "b", 300)
	if v, _ := c.Get(7); v != "b" {
		t.Fatalf("Get = %q, want replacement", v)
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 300 {
		t.Fatalf("residency = %+v, want 1 entry / 300 bytes", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewSharded[int](300, 1)
	c.Put(1, 1, 100)
	c.Put(2, 2, 100)
	c.Put(3, 3, 100)
	// Touch 1 so that 2 is the LRU victim.
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 should be resident")
	}
	c.Put(4, 4, 100)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted (LRU)")
	}
	for _, id := range []storage.PageID{1, 3, 4} {
		if _, ok := c.Get(id); !ok {
			t.Fatalf("%d should be resident", id)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestByteBoundHonoured(t *testing.T) {
	const budget = 1000
	c := NewSharded[int](budget, 1)
	for i := 0; i < 100; i++ {
		c.Put(storage.PageID(i), i, 90)
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, budget)
		}
	}
}

func TestOversizedValueNotRetained(t *testing.T) {
	c := NewSharded[int](100, 1)
	c.Put(1, 1, 500)
	if _, ok := c.Get(1); ok {
		t.Fatal("value larger than the budget must not be retained")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("residency = %+v, want empty", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := NewSharded[int](1<<20, 1)
	c.Put(5, 5, 10)
	c.Invalidate(5)
	c.Invalidate(6) // absent: no-op
	if _, ok := c.Get(5); ok {
		t.Fatal("invalidated value still resident")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestNilCacheIsValid(t *testing.T) {
	var c *Cache[int]
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(1, 1, 10)
	c.Invalidate(1)
	if c.Len() != 0 || c.Cap() != 0 || c.NumShards() != 0 {
		t.Fatal("nil cache should report empty")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

func TestSingleShardBelowThreshold(t *testing.T) {
	if n := New[int](64 * storage.PageSize).NumShards(); n != 1 {
		t.Fatalf("small cache uses %d shards, want 1", n)
	}
	if n := New[int](64 << 20).NumShards(); n < 1 {
		t.Fatalf("large cache uses %d shards", n)
	}
}

func TestWarmGetDoesNotAllocate(t *testing.T) {
	c := NewSharded[[]int](1<<20, 1)
	c.Put(3, []int{1, 2, 3}, 24)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(3); !ok {
			t.Fatal("lost the cached value")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get performs %.1f allocs/op, want 0", allocs)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](256 * storage.PageSize)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := storage.PageID((seed*31 + i) % 512)
				switch i % 3 {
				case 0:
					c.Put(id, i, int64(storage.PageSize/4))
				case 1:
					c.Get(id)
				default:
					c.Invalidate(id)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > c.Cap() {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, c.Cap())
	}
}

func TestCountersAddDelta(t *testing.T) {
	a := Counters{Hits: 1, Misses: 2, Evictions: 3, Invalidations: 4}
	b := a
	a.Add(b)
	want := Counters{Hits: 2, Misses: 4, Evictions: 6, Invalidations: 8}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
	if d := a.Delta(b); d != b {
		t.Fatalf("Delta = %+v, want %+v", d, b)
	}
}

func TestCountersResidencySplit(t *testing.T) {
	// Residency is a gauge: two snapshots around idle activity must be
	// identical (not doubled), while counters accumulate.
	c := NewSharded[int](1<<20, 1)
	c.Put(1, 1, 100)
	c.Put(2, 2, 100)
	c.Get(1)
	c.Get(3) // miss
	before := c.Residency()
	c.Get(1) // hit: counter moves, residency must not
	after := c.Residency()
	if before != after {
		t.Fatalf("residency changed across pure hits: %+v -> %+v", before, after)
	}
	if after != (Residency{Entries: 2, Bytes: 200}) {
		t.Fatalf("residency = %+v, want 2 entries / 200 bytes", after)
	}
	ct := c.Counters()
	if ct.Hits != 2 || ct.Misses != 1 {
		t.Fatalf("counters = %+v, want 2 hits / 1 miss", ct)
	}
	// The combined Stats view carries both halves via embedding.
	st := c.Stats()
	if st.Hits != 2 || st.Entries != 2 {
		t.Fatalf("combined stats = %+v", st)
	}
}

func TestShardBudgetSplit(t *testing.T) {
	c := NewSharded[int](1001, 4)
	var total int64
	for i := range c.shards {
		total += c.shards[i].maxBytes
	}
	if total != 1001 {
		t.Fatalf("shard budgets sum to %d, want 1001", total)
	}
}

func BenchmarkGetWarm(b *testing.B) {
	c := New[[]int](64 << 20)
	for i := 0; i < 1024; i++ {
		c.Put(storage.PageID(i), []int{i}, 1024)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(storage.PageID(i % 1024))
	}
}

func BenchmarkPutEvict(b *testing.B) {
	c := New[[]int](1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(storage.PageID(i%8192), []int{i}, 4096)
	}
}

func ExampleCache() {
	c := New[string](1 << 20)
	c.Put(1, "decoded node", 64)
	v, ok := c.Get(1)
	fmt.Println(v, ok)
	// Output: decoded node true
}

// TestShardingSpreadsSlottedIDs guards the shard choice against MBRQT's
// key shape. Its keys are page<<10|slot and a bulk-loaded tree keeps its
// large records at slot 0, so sharding on the key's low bits put every
// node in one shard: the cache held a quarter (or a 64th) of its budget
// and evicted for ever. N equal values under ids p<<10 that fill 90% of
// the budget must all stay resident, spread evenly over the shards.
func TestShardingSpreadsSlottedIDs(t *testing.T) {
	const valueBytes = 10 << 10
	for _, shards := range []int{4, 64} {
		budget := int64(shards) * 256 * valueBytes
		c := NewSharded[int](budget, shards)
		n := int(budget * 9 / 10 / valueBytes)
		for p := 0; p < n; p++ {
			c.Put(storage.PageID(p<<10), p, valueBytes)
		}
		st := c.Stats()
		if st.Evictions != 0 || st.Entries != n {
			t.Errorf("%d shards: %d evictions, %d of %d values resident at 90%% of the budget",
				shards, st.Evictions, st.Entries, n)
		}
		lo, hi := c.shards[0].bytes, c.shards[0].bytes
		for i := range c.shards {
			lo, hi = min(lo, c.shards[i].bytes), max(hi, c.shards[i].bytes)
		}
		if hi > 2*lo {
			t.Errorf("%d shards: byte loads range from %d to %d, more than 2x apart", shards, lo, hi)
		}
	}
}
