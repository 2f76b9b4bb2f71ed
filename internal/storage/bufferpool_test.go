package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// newPoolWithPages returns a pool over a MemStore pre-filled with n pages,
// page i filled with byte(i).
func newPoolWithPages(t *testing.T, frames, n int) *BufferPool {
	t.Helper()
	store := NewMemStore()
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := store.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return NewBufferPool(store, frames)
}

func TestFramesForBytes(t *testing.T) {
	if got := FramesForBytes(512 * 1024); got != 64 {
		t.Errorf("FramesForBytes(512KB) = %d, want 64", got)
	}
	if got := FramesForBytes(100); got != 1 {
		t.Errorf("FramesForBytes(100) = %d, want 1", got)
	}
}

func TestGetHitMiss(t *testing.T) {
	p := newPoolWithPages(t, 4, 8)
	f, err := p.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Data()[0] != 3 {
		t.Fatalf("page content = %d, want 3", f.Data()[0])
	}
	f.Release()
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats after first Get = %+v", st)
	}
	f, err = p.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	st = p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats after second Get = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := newPoolWithPages(t, 2, 4)
	get := func(id PageID) {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	get(0) // resident: {0}
	get(1) // resident: {0,1}
	get(0) // 0 now MRU
	get(2) // must evict 1 (LRU), resident {0,2}
	p.ResetStats()
	get(0)
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("page 0 should still be resident: %+v", st)
	}
	get(1)
	if st := p.Stats(); st.Misses != 1 {
		t.Fatalf("page 1 should have been evicted: %+v", st)
	}
}

// TestDemoteEvictsFirst checks that a demoted page is the next victim
// but stays cached until then, that Unpinned lists unpinned pages most
// recently used first with their bytes, and that Demote leaves a pinned
// or absent page alone.
func TestDemoteEvictsFirst(t *testing.T) {
	p := newPoolWithPages(t, 3, 5)
	get := func(id PageID) {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	get(0)
	get(1)
	get(2) // LRU order, most recent first: 2 1 0
	pinned, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Demote(1) // pinned: no effect
	p.Demote(4) // not resident: no effect
	var seen []PageID
	p.Unpinned(func(id PageID, data []byte) {
		if data[0] != byte(id) {
			t.Errorf("Unpinned hands page %d the bytes of page %d", id, data[0])
		}
		seen = append(seen, id)
	})
	if fmt.Sprint(seen) != "[2 0]" {
		t.Fatalf("Unpinned lists %v, want [2 0]", seen)
	}
	pinned.Release() // order: 1 2 0
	p.Demote(2)      // order: 1 0 2
	p.ResetStats()
	get(2) // still cached: a hit, and 2 is most recent again
	if st := p.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("a demoted page left the pool: %+v", st)
	}
	p.Demote(1) // order: 2 0 1
	get(3)      // evicts 1, the demoted page, not 0, the least recent
	p.ResetStats()
	get(0)
	get(1)
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want page 0 resident and page 1 evicted: %+v", st)
	}
}

// TestPinLogRecordsEveryGet checks that an attached log receives every
// Get, hit or miss, in order, and a detached one nothing more.
func TestPinLogRecordsEveryGet(t *testing.T) {
	p := newPoolWithPages(t, 2, 4)
	get := func(id PageID) {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	get(3)
	log := new(PinLog)
	p.SetPinLog(log)
	for _, id := range []PageID{0, 3, 0, 2, 1} {
		get(id)
	}
	p.SetPinLog(nil)
	get(2)
	if got := fmt.Sprint(log.Pages()); got != "[0 3 0 2 1]" {
		t.Fatalf("pin log %s, want [0 3 0 2 1]", got)
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p := newPoolWithPages(t, 2, 4)
	pinned, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle several other pages through the remaining frame.
	for id := PageID(1); id <= 3; id++ {
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	p.ResetStats()
	f, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("pinned page was evicted: %+v", st)
	}
	f.Release()
	pinned.Release()
}

func TestPoolFullWhenAllPinned(t *testing.T) {
	p := newPoolWithPages(t, 2, 4)
	f0, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(2); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Get with all frames pinned: err = %v, want ErrPoolFull", err)
	}
	f0.Release()
	// Now there is an evictable frame.
	f2, err := p.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	f2.Release()
	f1.Release()
}

func TestDirtyPageWrittenBackOnEviction(t *testing.T) {
	store := NewMemStore()
	id, _ := store.Allocate()
	id2, _ := store.Allocate()
	p := NewBufferPool(store, 1)

	f, err := p.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xAB
	f.MarkDirty()
	f.Release()

	// Force eviction of the dirty page.
	f2, err := p.Get(id2)
	if err != nil {
		t.Fatal(err)
	}
	f2.Release()
	if st := p.Stats(); st.Writes != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 write and 1 eviction", st)
	}

	buf := make([]byte, PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("dirty page not written back on eviction")
	}
}

func TestCleanPageNotWrittenBackOnEviction(t *testing.T) {
	p := newPoolWithPages(t, 1, 2)
	f, _ := p.Get(0)
	f.Release()
	f, _ = p.Get(1)
	f.Release()
	if st := p.Stats(); st.Writes != 0 {
		t.Fatalf("clean eviction caused %d writes", st.Writes)
	}
}

func TestNewPageZeroedAndFlushed(t *testing.T) {
	store := NewMemStore()
	p := NewBufferPool(store, 2)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	copy(f.Data(), []byte("hello"))
	f.MarkDirty()
	f.Release()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := store.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:5]) != "hello" {
		t.Fatal("FlushAll did not persist page content")
	}
}

// TestNewPageReusedFrameIsZeroed ensures NewPage never leaks bytes from a
// previous occupant of the frame.
func TestNewPageReusedFrameIsZeroed(t *testing.T) {
	store := NewMemStore()
	p := NewBufferPool(store, 1)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data() {
		f.Data()[i] = 0xFF
	}
	f.MarkDirty()
	f.Release()

	f2, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Release()
	for i, b := range f2.Data() {
		if b != 0 {
			t.Fatalf("byte %d of fresh page = %#x, want 0", i, b)
		}
	}
}

// A discarded page costs nothing further: its dirty bytes never reach
// the store, at FlushAll or by eviction, and its frame — buffer and all —
// is the next one handed out.
func TestDiscardDropsFrameWithoutWriteBack(t *testing.T) {
	p := newPoolWithPages(t, 2, 2)
	f, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Data()[0] = 0xEE
	f.MarkDirty()
	buf := &f.Data()[0]
	f.Release()
	p.Discard(0)
	p.Discard(0) // not resident any more: nothing to do
	g, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if &g.Data()[0] != buf {
		t.Error("the discarded frame's buffer was not the next one used")
	}
	g.Release()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Writes != 0 || st.Evictions != 0 {
		t.Errorf("stats after discard + flush: %+v, want no write and no eviction", st)
	}
	back := make([]byte, PageSize)
	if err := p.Store().ReadPage(0, back); err != nil || back[0] != 0 {
		t.Errorf("store page 0 starts with %#x (err %v), want the byte written before the discard, 0", back[0], err)
	}
}

func TestDiscardOfPinnedPagePanics(t *testing.T) {
	p := newPoolWithPages(t, 2, 1)
	f, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	defer func() {
		if recover() == nil {
			t.Error("Discard of a pinned page did not panic")
		}
	}()
	p.Discard(0)
}

// ClaimPage is NewPage for a page that exists: zeroed and dirty, and the
// store is not read — resident or not, whatever the page held is gone.
func TestClaimPageReadsNothing(t *testing.T) {
	p := newPoolWithPages(t, 2, 3)
	if f, err := p.Get(2); err != nil {
		t.Fatal(err)
	} else {
		f.Release()
	}
	reads := p.Stats().Reads
	for _, id := range []PageID{1, 2} { // not resident, resident
		f, err := p.ClaimPage(id)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range f.Data() {
			if b != 0 {
				t.Fatalf("claimed page %d: byte %d is %#x, want 0", id, i, b)
			}
		}
		f.Data()[7] = 0x77
		f.Release()
	}
	if got := p.Stats().Reads; got != reads {
		t.Errorf("ClaimPage read %d pages from the store", got-reads)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, PageSize)
	for _, id := range []PageID{1, 2} {
		if err := p.Store().ReadPage(id, back); err != nil || back[0] != 0 || back[7] != 0x77 {
			t.Errorf("store page %d after flush: bytes %#x %#x (err %v), want 0 0x77", id, back[0], back[7], err)
		}
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	p := newPoolWithPages(t, 2, 2)
	f, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	f.Release()
}

func TestPinnedFramesCounter(t *testing.T) {
	p := newPoolWithPages(t, 4, 4)
	if p.PinnedFrames() != 0 {
		t.Fatal("fresh pool has pinned frames")
	}
	f0, _ := p.Get(0)
	f1, _ := p.Get(1)
	if p.PinnedFrames() != 2 {
		t.Fatalf("PinnedFrames = %d, want 2", p.PinnedFrames())
	}
	f0.Release()
	f1.Release()
	if p.PinnedFrames() != 0 {
		t.Fatalf("PinnedFrames = %d, want 0", p.PinnedFrames())
	}
}

// TestRandomizedConsistency drives the pool with a random workload against
// a reference model and verifies page contents and conservation of data.
func TestRandomizedConsistency(t *testing.T) {
	const numPages = 32
	store := NewMemStore()
	model := make([][]byte, numPages)
	for i := 0; i < numPages; i++ {
		if _, err := store.Allocate(); err != nil {
			t.Fatal(err)
		}
		model[i] = make([]byte, PageSize)
	}
	p := NewBufferPool(store, 5)
	rng := rand.New(rand.NewSource(123))
	for step := 0; step < 5000; step++ {
		id := PageID(rng.Intn(numPages))
		f, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		// Verify a few random offsets against the model.
		for k := 0; k < 4; k++ {
			off := rng.Intn(PageSize)
			if f.Data()[off] != model[id][off] {
				t.Fatalf("step %d: page %d offset %d = %d, model says %d",
					step, id, off, f.Data()[off], model[id][off])
			}
		}
		if rng.Intn(2) == 0 {
			off := rng.Intn(PageSize)
			v := byte(rng.Intn(256))
			f.Data()[off] = v
			model[id][off] = v
			f.MarkDirty()
		}
		f.Release()
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < numPages; i++ {
		if err := store.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		for off := range buf {
			if buf[off] != model[i][off] {
				t.Fatalf("final state: page %d offset %d = %d, model %d",
					i, off, buf[off], model[i][off])
			}
		}
	}
}

func TestDefaultShardCount(t *testing.T) {
	// Small pools must stay single-sharded so the paper's 64-frame pool
	// keeps its exact global LRU behaviour.
	if got := NewBufferPool(NewMemStore(), 64).NumShards(); got != 1 {
		t.Errorf("64-frame pool has %d shards, want 1", got)
	}
	p := NewBufferPool(NewMemStore(), 8192)
	if p.NumShards() < 1 || p.NumShards() > 16 {
		t.Errorf("8192-frame pool has %d shards, want 1..16", p.NumShards())
	}
	if p.NumFrames() != 8192 {
		t.Errorf("NumFrames = %d, want 8192", p.NumFrames())
	}
}

func TestShardedPoolFrameSplit(t *testing.T) {
	p := NewBufferPoolWithConfig(NewMemStore(), 10, BufferPoolConfig{Shards: 4})
	if p.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", p.NumShards())
	}
	if p.NumFrames() != 10 {
		t.Fatalf("NumFrames = %d, want 10", p.NumFrames())
	}
	// More shards than frames collapses to one frame per shard.
	p = NewBufferPoolWithConfig(NewMemStore(), 3, BufferPoolConfig{Shards: 8})
	if p.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", p.NumShards())
	}
}

// TestConcurrentGetStress hammers a sharded pool from many goroutines
// pinning and unpinning overlapping page sets, verifying page contents
// on every access and the pin accounting at the end. Run with -race this
// is the synchronization proof for the parallel ANN executor.
func TestConcurrentGetStress(t *testing.T) {
	const (
		numPages   = 64
		goroutines = 8
		iters      = 3000
	)
	store := NewMemStore()
	for i := 0; i < numPages; i++ {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := store.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Frames are scarce relative to the page set so evictions happen
	// constantly, but each shard can still hold every concurrent pin
	// (goroutines pin at most 2 pages at a time).
	p := NewBufferPoolWithConfig(store, 64, BufferPoolConfig{Shards: 4})
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				id := PageID(rng.Intn(numPages))
				f, err := p.Get(id)
				if err != nil {
					errc <- err
					return
				}
				if got := f.Data()[rng.Intn(PageSize)]; got != byte(id) {
					errc <- fmt.Errorf("page %d holds byte %d", id, got)
					f.Release()
					return
				}
				// Half the time pin a second, overlapping page before
				// releasing the first, to exercise nested pin counts.
				if rng.Intn(2) == 0 {
					id2 := PageID(rng.Intn(numPages))
					f2, err := p.Get(id2)
					if err != nil {
						errc <- err
						f.Release()
						return
					}
					if got := f2.Data()[0]; got != byte(id2) {
						errc <- fmt.Errorf("page %d holds byte %d", id2, got)
						f2.Release()
						f.Release()
						return
					}
					f2.Release()
				}
				f.Release()
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("PinnedFrames = %d after all releases, want 0", n)
	}
	st := p.Stats()
	if st.Hits+st.Misses < goroutines*iters {
		t.Fatalf("hits+misses = %d, want at least %d", st.Hits+st.Misses, goroutines*iters)
	}
	if st.Writes != 0 {
		t.Fatalf("read-only workload caused %d writes", st.Writes)
	}
}

// TestConcurrentPinsSamePage verifies the pin count under many
// simultaneous pins of one page: the page must stay resident and the
// final unpin must return it to the LRU exactly once.
func TestConcurrentPinsSamePage(t *testing.T) {
	p := newPoolWithPages(t, 8, 8)
	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f, err := p.Get(3)
				if err != nil {
					errc <- err
					return
				}
				if f.Data()[0] != 3 {
					errc <- fmt.Errorf("page 3 holds byte %d", f.Data()[0])
					f.Release()
					return
				}
				f.Release()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("PinnedFrames = %d, want 0", n)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Reads: 3, Writes: 4, Evictions: 5}
	b := Stats{Hits: 10, Misses: 20, Reads: 30, Writes: 40, Evictions: 50}
	a.Add(b)
	want := Stats{Hits: 11, Misses: 22, Reads: 33, Writes: 44, Evictions: 55}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
	if want.IOs() != 77 {
		t.Fatalf("IOs = %d, want 77", want.IOs())
	}
}

// TestGetOfResidentPageDoesNotAllocate: Get is an inlinable wrapper, so a
// caller that releases the frame before returning keeps the handle on its
// stack. A point query pins one page per visited node and relies on it.
func TestGetOfResidentPageDoesNotAllocate(t *testing.T) {
	pool := NewBufferPool(NewMemStore(), 8)
	f, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Release()
	allocs := testing.AllocsPerRun(100, func() {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Data()[0]
		f.Release()
	})
	if allocs != 0 {
		t.Errorf("Get + Release of a resident page allocates %.0f times, want 0", allocs)
	}
}
