package storage

import (
	"errors"
	"testing"
	"time"
)

// fastRetries keeps retry-path tests quick without changing the policy
// shape (3 retries, exponential, jittered).
var fastRetries = BufferPoolConfig{
	RetryBackoff:    time.Microsecond,
	RetryBackoffMax: 10 * time.Microsecond,
}

func noRetries() BufferPoolConfig {
	cfg := fastRetries
	cfg.ReadRetries = -1
	return cfg
}

func TestPoolPropagatesReadError(t *testing.T) {
	inner := NewMemStore()
	id, _ := inner.Allocate()
	fs := NewFaultStore(inner, FaultConfig{FailReadsAfter: 1})
	pool := NewBufferPoolWithConfig(fs, 2, noRetries())
	if _, err := pool.Get(id); !errors.Is(err, ErrTransientIO) {
		t.Fatalf("Get error = %v, want ErrTransientIO", err)
	}
	// The frame grabbed for the failed read must be recycled, not leaked.
	fs.SetConfig(FaultConfig{})
	f, err := pool.Get(id)
	if err != nil {
		t.Fatalf("pool unusable after a failed read: %v", err)
	}
	f.Release()
	RequireNoPinnedFrames(t, pool)
}

func TestPoolPropagatesWriteErrorOnEviction(t *testing.T) {
	inner := NewMemStore()
	id0, _ := inner.Allocate()
	id1, _ := inner.Allocate()
	fs := NewFaultStore(inner, FaultConfig{FailWritesAfter: 1})
	pool := NewBufferPool(fs, 1)
	f, err := pool.Get(id0)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Release()
	// Evicting the dirty page must surface the write failure.
	if _, err := pool.Get(id1); !errors.Is(err, ErrTransientIO) {
		t.Fatalf("eviction error = %v, want ErrTransientIO", err)
	}
	RequireNoPinnedFrames(t, pool)
}

// TestEvictionWriteFailureKeepsFrameUsable is the regression test for a
// frame leak: when the eviction write-back fails, the victim frame was
// unlinked from the LRU list and never relinked, so it became permanently
// unevictable — and a later hit on its page would unlink it a second
// time, corrupting the list.
func TestEvictionWriteFailureKeepsFrameUsable(t *testing.T) {
	inner := NewMemStore()
	id0, _ := inner.Allocate()
	id1, _ := inner.Allocate()
	fs := NewFaultStore(inner, FaultConfig{FailWritesAfter: 1})
	pool := NewBufferPool(fs, 1)
	f, err := pool.Get(id0)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Release()
	if _, err := pool.Get(id1); !errors.Is(err, ErrTransientIO) {
		t.Fatalf("eviction error = %v, want ErrTransientIO", err)
	}
	// The dirty victim must still be resident, hittable, and — after the
	// fault clears — evictable.
	f, err = pool.Get(id0)
	if err != nil {
		t.Fatalf("victim page lost after failed eviction: %v", err)
	}
	f.Release()
	fs.SetConfig(FaultConfig{})
	f, err = pool.Get(id1)
	if err != nil {
		t.Fatalf("frame leaked after failed eviction: %v", err)
	}
	f.Release()
	f, err = pool.Get(id0)
	if err != nil {
		t.Fatalf("LRU list corrupted after failed eviction: %v", err)
	}
	f.Release()
	RequireNoPinnedFrames(t, pool)
}

func TestPoolPropagatesAllocError(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{FailAllocsAfter: 1})
	pool := NewBufferPool(fs, 2)
	if _, err := pool.NewPage(); !errors.Is(err, ErrTransientIO) {
		t.Fatalf("NewPage error = %v, want ErrTransientIO", err)
	}
	RequireNoPinnedFrames(t, pool)
}

func TestFlushAllPropagatesWriteError(t *testing.T) {
	inner := NewMemStore()
	id, _ := inner.Allocate()
	fs := NewFaultStore(inner, FaultConfig{FailWritesAfter: 1})
	pool := NewBufferPool(fs, 2)
	f, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Release()
	if err := pool.FlushAll(); !errors.Is(err, ErrTransientIO) {
		t.Fatalf("FlushAll error = %v, want ErrTransientIO", err)
	}
}

func TestPoolRetriesTransientReads(t *testing.T) {
	inner := NewMemStore()
	id, _ := inner.Allocate()
	fs := NewFaultStore(inner, FaultConfig{TransientReadErrs: 2})
	pool := NewBufferPoolWithConfig(fs, 2, fastRetries)
	f, err := pool.Get(id)
	if err != nil {
		t.Fatalf("Get should have retried through 2 transient failures: %v", err)
	}
	f.Release()
	if got := pool.Stats().Retries; got != 2 {
		t.Errorf("Stats().Retries = %d, want 2", got)
	}
	if got := fs.Stats().ReadErrors; got != 2 {
		t.Errorf("FaultStore.Stats().ReadErrors = %d, want 2", got)
	}
	RequireNoPinnedFrames(t, pool)
}

func TestPoolRetryGivesUp(t *testing.T) {
	inner := NewMemStore()
	id, _ := inner.Allocate()
	fs := NewFaultStore(inner, FaultConfig{FailReadsAfter: 1})
	pool := NewBufferPoolWithConfig(fs, 2, fastRetries)
	if _, err := pool.Get(id); !errors.Is(err, ErrTransientIO) {
		t.Fatalf("Get error = %v, want ErrTransientIO", err)
	}
	if got := pool.Stats().Retries; got != DefaultReadRetries {
		t.Errorf("Stats().Retries = %d, want %d", got, DefaultReadRetries)
	}
	RequireNoPinnedFrames(t, pool)
}

func TestCorruptPageNotRetried(t *testing.T) {
	inner := NewMemStore()
	id, _ := inner.Allocate()
	fs := NewFaultStore(inner, FaultConfig{})
	if err := fs.FlipBit(id, 40_000); err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPoolWithConfig(fs, 2, fastRetries)
	if _, err := pool.Get(id); !IsCorrupt(err) {
		t.Fatalf("Get error = %v, want ErrCorruptPage", err)
	}
	st := pool.Stats()
	if st.Retries != 0 {
		t.Errorf("corruption was retried %d times; corrupt pages must not be retried", st.Retries)
	}
	if st.CorruptPages != 1 {
		t.Errorf("Stats().CorruptPages = %d, want 1", st.CorruptPages)
	}
	RequireNoPinnedFrames(t, pool)
}

func TestBitFlipDetectedOnRead(t *testing.T) {
	for _, mk := range []struct {
		name string
		make func(t *testing.T) Store
	}{
		{"MemStore", func(t *testing.T) Store { return NewMemStore() }},
		{"FileStore", func(t *testing.T) Store {
			s, err := NewTempFileStore()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	} {
		t.Run(mk.name, func(t *testing.T) {
			fs := NewFaultStore(mk.make(t), FaultConfig{})
			id, err := fs.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			page := make([]byte, PageSize)
			for i := range page {
				page[i] = byte(i)
			}
			if err := fs.WritePage(id, page); err != nil {
				t.Fatal(err)
			}
			if err := fs.FlipBit(id, 12345); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, PageSize)
			if err := fs.ReadPage(id, buf); !IsCorrupt(err) {
				t.Fatalf("ReadPage after bit flip = %v, want ErrCorruptPage", err)
			}
			// Flipping the same bit again restores the page.
			if err := fs.FlipBit(id, 12345); err != nil {
				t.Fatal(err)
			}
			if err := fs.ReadPage(id, buf); err != nil {
				t.Fatalf("ReadPage after restore: %v", err)
			}
		})
	}
}

func TestTornWriteDetectedOnRead(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{})
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = 0xAB
	}
	if err := fs.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	if err := fs.TearPage(id, physPageSize/2); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := fs.ReadPage(id, buf); !IsCorrupt(err) {
		t.Fatalf("ReadPage after torn write = %v, want ErrCorruptPage", err)
	}
}

func TestFaultStoreProbabilisticFaults(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 7, ReadErrProb: 0.5})
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	failures := 0
	for i := 0; i < 200; i++ {
		if err := fs.ReadPage(id, buf); err != nil {
			if !IsTransient(err) {
				t.Fatalf("injected read error is not transient: %v", err)
			}
			failures++
		}
	}
	if failures < 50 || failures > 150 {
		t.Errorf("with p=0.5 over 200 reads got %d failures, expected ~100", failures)
	}
	if got := fs.Stats().ReadErrors; got != uint64(failures) {
		t.Errorf("Stats().ReadErrors = %d, want %d", got, failures)
	}
	// Same seed, same sequence: reproducibility is the whole point.
	fs2 := NewFaultStore(NewMemStore(), FaultConfig{Seed: 7, ReadErrProb: 0.5})
	if _, err := fs2.Allocate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := fs2.ReadPage(id, buf); err != nil {
			failures--
		}
	}
	if failures != 0 {
		t.Error("same seed produced a different fault sequence")
	}
}

func TestFaultStoreWriteCorruptionProbabilistic(t *testing.T) {
	fs := NewFaultStore(NewMemStore(), FaultConfig{Seed: 3, BitFlipProb: 1})
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	if err := fs.WritePage(id, page); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().BitFlips; got != 1 {
		t.Fatalf("Stats().BitFlips = %d, want 1", got)
	}
	buf := make([]byte, PageSize)
	if err := fs.ReadPage(id, buf); !IsCorrupt(err) {
		t.Fatalf("ReadPage after injected bit flip = %v, want ErrCorruptPage", err)
	}
}

// TestMissesMinusReadsCountsFailedGets holds Stats to its definition: a
// miss is counted before its frame is grabbed and its page read, and a
// read only once it succeeded, so Misses − Reads is the number of Gets
// that failed — on reads that stayed failed through the retries, and on
// a pool whose every frame is pinned.
func TestMissesMinusReadsCountsFailedGets(t *testing.T) {
	inner := NewMemStore()
	for i := 0; i < 16; i++ {
		if _, err := inner.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	fs := NewFaultStore(inner, FaultConfig{Seed: 7, ReadErrProb: 0.4})
	pool := NewBufferPoolWithConfig(fs, 4, fastRetries)
	failed := 0
	for i := 0; i < 400; i++ {
		f, err := pool.Get(PageID(i * 7 % 16))
		if err != nil {
			failed++
			continue
		}
		f.Release()
	}
	fs.SetConfig(FaultConfig{})
	var held []*Frame
	for id := PageID(0); id < 4; id++ {
		f, err := pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
	}
	if _, err := pool.Get(5); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Get with every frame pinned: %v, want ErrPoolFull", err)
	}
	failed++
	for _, f := range held {
		f.Release()
	}
	st := pool.Stats()
	if st.Retries == 0 || failed < 2 {
		t.Fatalf("the store injected too little: %d retries, %d failed Gets", st.Retries, failed)
	}
	if got := st.Misses - st.Reads; got != uint64(failed) {
		t.Errorf("Misses − Reads = %d − %d = %d, want the %d failed Gets", st.Misses, st.Reads, got, failed)
	}
	RequireNoPinnedFrames(t, pool)
}
