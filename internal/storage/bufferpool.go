package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"allnn/internal/obs"
)

// Stats accumulates buffer pool activity. Misses is the number that
// matters for reproducing the paper's I/O costs: each miss is one page
// fetched from the store.
type Stats struct {
	Hits   uint64 // Get served from a resident frame
	Misses uint64 // Get that had to read the page from the store
	// Reads counts the misses whose read succeeded: a miss is counted
	// before its frame is grabbed and its page read, so Misses − Reads is
	// the number of Gets that failed (pool full, or a read error that
	// survived the retries).
	Reads     uint64
	Writes    uint64 // dirty pages written back to the store
	Evictions uint64 // frames recycled to make room
	// Retries counts transient read failures that were retried (whether or
	// not the retry eventually succeeded); CorruptPages counts reads that
	// surfaced a verification failure (wrapped ErrCorruptPage).
	Retries      uint64
	CorruptPages uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Evictions += other.Evictions
	s.Retries += other.Retries
	s.CorruptPages += other.CorruptPages
}

// Delta returns s - prev, the activity between two snapshots (all
// counters are monotonic).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Reads:        s.Reads - prev.Reads,
		Writes:       s.Writes - prev.Writes,
		Evictions:    s.Evictions - prev.Evictions,
		Retries:      s.Retries - prev.Retries,
		CorruptPages: s.CorruptPages - prev.CorruptPages,
	}
}

// AddTo accumulates the snapshot into a metrics registry under the given
// family prefix ("<prefix>.hits", ".misses", ".reads", ".writes",
// ".evictions", ".retries", ".corrupt_pages"). Used for publishing
// per-run deltas.
func (s Stats) AddTo(r *obs.Registry, prefix string) {
	r.Counter(prefix + ".hits").Add(s.Hits)
	r.Counter(prefix + ".misses").Add(s.Misses)
	r.Counter(prefix + ".reads").Add(s.Reads)
	r.Counter(prefix + ".writes").Add(s.Writes)
	r.Counter(prefix + ".evictions").Add(s.Evictions)
	r.Counter(prefix + ".retries").Add(s.Retries)
	r.Counter(prefix + ".corrupt_pages").Add(s.CorruptPages)
}

// IOs returns the total number of page transfers (reads + writes).
func (s Stats) IOs() uint64 { return s.Reads + s.Writes }

// ErrPoolFull is returned by Get/NewPage when every candidate frame is
// pinned. In a sharded pool the error is per shard: a page can only live
// in its own shard's frames, so it is raised when that shard is fully
// pinned even if other shards still have room.
var ErrPoolFull = errors.New("storage: all buffer frames pinned")

const noFrame = -1

type frame struct {
	id    PageID
	data  []byte
	pins  int
	dirty bool
	// Doubly-linked LRU list over frame indices; only unpinned resident
	// frames are linked. More-recently-used frames are nearer the head.
	prev, next int
}

// Frame is a pinned page in the buffer pool. The caller must Release it
// when done; the data slice is only valid while the frame is pinned.
type Frame struct {
	shard *poolShard
	idx   int
	id    PageID
}

// ID returns the page id this frame holds.
func (f *Frame) ID() PageID { return f.id }

// Data returns the page bytes. Mutating them requires MarkDirty. The
// slice is stable and exclusively visible for the duration of the pin (a
// frame is never recycled while pinned), so no lock is needed here.
func (f *Frame) Data() []byte { return f.shard.frames[f.idx].data }

// MarkDirty records that the page content was modified and must be
// written back before eviction.
func (f *Frame) MarkDirty() {
	f.shard.mu.Lock()
	f.shard.frames[f.idx].dirty = true
	f.shard.mu.Unlock()
}

// Release unpins the frame. It is safe to call exactly once per Get /
// NewPage; releasing an unpinned frame panics, as it indicates a
// pin-accounting bug in the caller.
func (f *Frame) Release() { f.shard.unpin(f.idx) }

// poolShard is one independently-locked slice of the pool: a page id maps
// to exactly one shard, which runs the classic pin-counted LRU over its
// own frames. All shard state below mu is guarded by it.
type poolShard struct {
	mu     sync.Mutex
	store  Store
	frames []frame
	table  map[PageID]int // resident page -> frame index
	free   []int          // unused frame indices
	// LRU list head/tail over unpinned resident frames.
	lruHead, lruTail int
	stats            Stats
}

// BufferPool caches pages of a Store in a fixed number of PageSize frames
// with LRU replacement, mirroring the small SHORE buffer pool used in the
// paper's experiments (64 frames = 512 KB by default).
//
// The pool is safe for concurrent use: frames are sharded by page id into
// independently-locked shards, so concurrent readers (e.g. the parallel
// ANN executor's subtree workers) only contend when they touch pages of
// the same shard. Small pools (fewer than shardThreshold frames) use a
// single shard and therefore keep the exact global LRU behaviour of the
// paper's experiments.
type BufferPool struct {
	store  Store
	shards []poolShard
	// Retry policy for transient read failures (see BufferPoolConfig).
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	// trace, when set, receives a "pool.read" span per miss (lane
	// obs.TidPool). One atomic load per Get when unset.
	trace atomic.Pointer[obs.Tracer]
	// pins, when set, records the page of every Get (SetPinLog).
	pins atomic.Pointer[PinLog]
}

// PinLog records the page of every Get a pool serves, hit or miss, in
// order. A test attaches one (SetPinLog) to replay a traversal's page
// requests under other replacement policies; production never does.
type PinLog struct {
	mu    sync.Mutex
	pages []PageID
}

// Pages returns a copy of the pages recorded so far.
func (l *PinLog) Pages() []PageID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]PageID(nil), l.pages...)
}

func (l *PinLog) add(id PageID) {
	l.mu.Lock()
	l.pages = append(l.pages, id)
	l.mu.Unlock()
}

// Retry policy defaults: three retries starting at 200µs roughly double
// each time and stay under DefaultRetryBackoffMax, so a persistently
// failing page costs a few milliseconds before the error surfaces.
const (
	DefaultReadRetries     = 3
	DefaultRetryBackoff    = 200 * time.Microsecond
	DefaultRetryBackoffMax = 5 * time.Millisecond
)

// BufferPoolConfig tunes a pool beyond its frame count. The zero value
// selects the defaults (automatic sharding, DefaultReadRetries transient
// read retries with jittered exponential backoff).
type BufferPoolConfig struct {
	// Shards splits the frames across this many independently-locked
	// shards; 0 picks automatically (single shard below shardThreshold
	// frames, preserving exact global LRU).
	Shards int
	// ReadRetries is the maximum number of times a transient read failure
	// (an error wrapping ErrTransientIO) is retried before the error
	// surfaces. 0 selects DefaultReadRetries; negative disables retries.
	// Errors wrapping ErrCorruptPage are never retried — re-reading
	// damaged bytes cannot heal them.
	ReadRetries int
	// RetryBackoff is the base delay before the first retry; each further
	// retry doubles it. 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the per-retry delay. 0 selects
	// DefaultRetryBackoffMax. Delays are jittered uniformly in
	// [d/2, d] to avoid retry convoys across concurrent readers.
	RetryBackoffMax time.Duration
}

func (c BufferPoolConfig) withDefaults() BufferPoolConfig {
	switch {
	case c.ReadRetries == 0:
		c.ReadRetries = DefaultReadRetries
	case c.ReadRetries < 0:
		c.ReadRetries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = DefaultRetryBackoffMax
	}
	return c
}

// shardThreshold is the pool size (in frames) below which the pool stays
// single-sharded, preserving exact global-LRU replacement. The paper's
// 512 KB pool (64 frames) is deliberately below it.
const shardThreshold = 128

// minFramesPerShard keeps shards large enough that per-shard LRU still
// approximates global LRU.
const minFramesPerShard = 32

// FramesForBytes returns the number of PageSize frames that fit in a pool
// of the given byte budget (minimum 1).
func FramesForBytes(bytes int) int {
	n := bytes / PageSize
	if n < 1 {
		n = 1
	}
	return n
}

// defaultShardCount picks the shard count for NewBufferPool: 1 for small
// pools (exact LRU), otherwise a power of two scaled to the machine with
// every shard keeping at least minFramesPerShard frames.
func defaultShardCount(numFrames int) int {
	if numFrames < shardThreshold {
		return 1
	}
	s := 1
	for s < 16 && s*2 <= runtime.GOMAXPROCS(0)*2 {
		s *= 2
	}
	for s > 1 && numFrames/s < minFramesPerShard {
		s /= 2
	}
	return s
}

// NewBufferPool creates a pool of numFrames frames over store, choosing a
// shard count automatically (single shard below shardThreshold frames)
// and the default retry policy.
func NewBufferPool(store Store, numFrames int) *BufferPool {
	return NewBufferPoolWithConfig(store, numFrames, BufferPoolConfig{})
}

// NewBufferPoolWithConfig creates a pool of numFrames frames over store
// with an explicit sharding and retry configuration.
func NewBufferPoolWithConfig(store Store, numFrames int, cfg BufferPoolConfig) *BufferPool {
	if numFrames < 1 {
		panic(fmt.Sprintf("storage: buffer pool needs at least 1 frame, got %d", numFrames))
	}
	cfg = cfg.withDefaults()
	numShards := cfg.Shards
	if numShards == 0 {
		numShards = defaultShardCount(numFrames)
	}
	if numShards < 1 {
		numShards = 1
	}
	if numShards > numFrames {
		numShards = numFrames
	}
	p := &BufferPool{
		store:       store,
		shards:      make([]poolShard, numShards),
		retries:     cfg.ReadRetries,
		backoffBase: cfg.RetryBackoff,
		backoffMax:  cfg.RetryBackoffMax,
	}
	base, extra := numFrames/numShards, numFrames%numShards
	for si := range p.shards {
		n := base
		if si < extra {
			n++
		}
		sh := &p.shards[si]
		sh.store = store
		sh.frames = make([]frame, n)
		sh.table = make(map[PageID]int, n)
		sh.free = make([]int, 0, n)
		sh.lruHead = noFrame
		sh.lruTail = noFrame
		for i := n - 1; i >= 0; i-- {
			sh.frames[i] = frame{id: InvalidPage, prev: noFrame, next: noFrame}
			sh.free = append(sh.free, i)
		}
	}
	return p
}

// shardOf returns the shard owning page id.
func (p *BufferPool) shardOf(id PageID) *poolShard {
	return &p.shards[uint32(id)%uint32(len(p.shards))]
}

// Store returns the underlying page store.
func (p *BufferPool) Store() Store { return p.store }

// NumFrames returns the pool capacity in frames.
func (p *BufferPool) NumFrames() int {
	n := 0
	for i := range p.shards {
		n += len(p.shards[i].frames)
	}
	return n
}

// NumShards returns the number of independently-locked shards.
func (p *BufferPool) NumShards() int { return len(p.shards) }

// Stats returns a snapshot of the accumulated statistics, summed over the
// shards.
func (p *BufferPool) Stats() Stats {
	var st Stats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		st.Add(sh.stats)
		sh.mu.Unlock()
	}
	return st
}

// ResetStats zeroes the statistics counters (the page cache itself is
// left intact).
func (p *BufferPool) ResetStats() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// Get pins the page id, reading it from the store on a miss. It is a
// wrapper small enough to inline, so a caller that releases the frame
// before returning keeps the handle on its stack: a point query pins a
// page per visited node and must not pay an allocation for each.
func (p *BufferPool) Get(id PageID) (*Frame, error) {
	return p.pin(id, new(Frame))
}

// pin pins page id, fills in the handle and returns it.
func (p *BufferPool) pin(id PageID, h *Frame) (*Frame, error) {
	tr := p.trace.Load()
	if l := p.pins.Load(); l != nil {
		l.add(id)
	}
	sh := p.shardOf(id)
	h.shard, h.id = sh, id
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if idx, ok := sh.table[id]; ok {
		sh.stats.Hits++
		f := &sh.frames[idx]
		if f.pins == 0 {
			sh.lruRemove(idx)
		}
		f.pins++
		h.idx = idx
		return h, nil
	}
	sh.stats.Misses++
	idx, err := sh.grabFrame()
	if err != nil {
		return nil, err
	}
	f := &sh.frames[idx]
	var readStart time.Time
	if tr != nil {
		readStart = time.Now()
	}
	if err := p.readWithRetry(sh, id, f.data); err != nil {
		// The frame grabbed for this read holds no page yet; recycle it so
		// a failed read never shrinks the pool.
		sh.free = append(sh.free, idx)
		return nil, err
	}
	if tr != nil {
		tr.Complete("pool.read", obs.TidPool, readStart, time.Now(), "page", int64(id))
	}
	sh.stats.Reads++
	f.id = id
	f.pins = 1
	f.dirty = false
	sh.table[id] = idx
	h.idx = idx
	return h, nil
}

// NewPage allocates a fresh page in the store and returns it pinned and
// zeroed. The page is marked dirty so that it reaches the store even if
// the caller writes nothing.
func (p *BufferPool) NewPage() (*Frame, error) {
	id, err := p.store.Allocate()
	if err != nil {
		return nil, err
	}
	return p.ClaimPage(id)
}

// ClaimPage pins the allocated page id for a caller about to overwrite
// it whole: zeroed and dirty like a NewPage, and without the store read
// of a Get — what the store holds under id (a dead page's bytes, or
// nothing that was ever written) is never looked at.
func (p *BufferPool) ClaimPage(id PageID) (*Frame, error) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.discard(id)
	idx, err := sh.grabFrame()
	if err != nil {
		return nil, err
	}
	f := &sh.frames[idx]
	clear(f.data)
	f.id = id
	f.pins = 1
	f.dirty = true
	sh.table[id] = idx
	return &Frame{shard: sh, idx: idx, id: id}, nil
}

// Discard drops page id's frame, if it is resident, WITHOUT writing it
// back: the frame serves the next miss or claim as it is. For a page
// nothing can reach any more — a dirty one's bytes are garbage, a clean
// one's are on disk. Discarding a pinned page panics: somebody still
// reads what the caller declared dead.
func (p *BufferPool) Discard(id PageID) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.discard(id)
}

// discard implements Discard. Called with the shard lock held.
func (sh *poolShard) discard(id PageID) {
	idx, ok := sh.table[id]
	if !ok {
		return
	}
	f := &sh.frames[idx]
	if f.pins > 0 {
		panic(fmt.Sprintf("storage: discard of pinned page %d", id))
	}
	sh.lruRemove(idx)
	delete(sh.table, id)
	f.id = InvalidPage
	f.dirty = false
	sh.free = append(sh.free, idx)
}

// Demote moves page id's frame, if it is resident and unpinned, to the
// evict-first end of the LRU list: the caller has finished with the page
// and expects nobody to ask for it soon. Unlike Discard the page stays
// cached, so a wrong guess costs nothing until the frame is reused.
func (p *BufferPool) Demote(id PageID) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.table[id]
	if !ok || sh.frames[idx].pins > 0 {
		return
	}
	sh.lruRemove(idx)
	sh.lruAppend(idx)
}

// Unpinned calls fn with every resident, unpinned page and its bytes,
// most recently used first within each shard. It pins nothing and counts
// no hit: fn sees the bytes under the shard's lock, so it must not call
// into the pool and must not keep data.
func (p *BufferPool) Unpinned(fn func(id PageID, data []byte)) {
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for idx := sh.lruHead; idx != noFrame; idx = sh.frames[idx].next {
			fn(sh.frames[idx].id, sh.frames[idx].data)
		}
		sh.mu.Unlock()
	}
}

// FlushAll writes every dirty resident page back to the store. Pinned
// pages are flushed too (they stay resident and pinned).
func (p *BufferPool) FlushAll() error {
	return p.flushExcept(InvalidPage)
}

// FlushAllExcept is FlushAll with one page held back. Checkpoints use it
// to write every page but the tree's meta page, sync, and only then
// write the meta page — making the meta write the atomic commit point of
// the checkpoint. Like eviction it writes resident frames only, so a
// page that was Discarded while dirty is never written: a checkpoint
// pays for the pages its image can reach, not for the ones that died
// before it.
func (p *BufferPool) FlushAllExcept(except PageID) error {
	return p.flushExcept(except)
}

func (p *BufferPool) flushExcept(except PageID) error {
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			if f.id != InvalidPage && f.id != except && f.dirty {
				if err := sh.store.WritePage(f.id, f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				sh.stats.Writes++
				f.dirty = false
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// FlushPage writes page id back to the store if it is resident and
// dirty. A non-resident page was either never dirtied or already written
// back by eviction, so there is nothing to do.
func (p *BufferPool) FlushPage(id PageID) error {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	idx, ok := sh.table[id]
	if !ok {
		return nil
	}
	f := &sh.frames[idx]
	if !f.dirty {
		return nil
	}
	if err := sh.store.WritePage(f.id, f.data); err != nil {
		return err
	}
	sh.stats.Writes++
	f.dirty = false
	return nil
}

// SetTracer attaches (or, with nil, detaches) a tracer receiving a
// "pool.read" span per page fetched from the store. Safe to flip
// concurrently with Gets. Spans land in the shared obs.TidPool lane, so
// concurrent workers' reads may overlap there — use them for when/what,
// not for nesting.
func (p *BufferPool) SetTracer(t *obs.Tracer) { p.trace.Store(t) }

// SetPinLog attaches (or, with nil, detaches) a log receiving the page of
// every Get. Safe to flip concurrently with Gets.
func (p *BufferPool) SetPinLog(l *PinLog) { p.pins.Store(l) }

// PinnedFrames returns the number of currently pinned frames; useful for
// leak checking in tests.
func (p *BufferPool) PinnedFrames() int {
	n := 0
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for i := range sh.frames {
			if sh.frames[i].pins > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// readWithRetry reads page id into buf through the shard's store,
// retrying transient failures (errors wrapping ErrTransientIO) with
// capped, jittered exponential backoff. Corruption (ErrCorruptPage) is
// never retried — re-reading damaged bytes cannot heal them — but is
// counted. Called with the shard lock held, so a retry sequence stalls
// this shard's other readers; the backoff cap keeps the stall to a few
// milliseconds even when every retry fails.
func (p *BufferPool) readWithRetry(sh *poolShard, id PageID, buf []byte) error {
	err := sh.store.ReadPage(id, buf)
	delay := p.backoffBase
	for attempt := 0; err != nil && attempt < p.retries && errors.Is(err, ErrTransientIO); attempt++ {
		sh.stats.Retries++
		// Uniform jitter in [delay/2, delay] avoids retry convoys when
		// several shards back off at once.
		time.Sleep(delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1)))
		if delay *= 2; delay > p.backoffMax {
			delay = p.backoffMax
		}
		err = sh.store.ReadPage(id, buf)
	}
	if err != nil && errors.Is(err, ErrCorruptPage) {
		sh.stats.CorruptPages++
	}
	return err
}

// grabFrame returns the index of a frame ready to be loaded: a free frame
// if available, otherwise the least recently used unpinned frame (flushed
// if dirty). Called with the shard lock held.
func (sh *poolShard) grabFrame() (int, error) {
	if n := len(sh.free); n > 0 {
		idx := sh.free[n-1]
		sh.free = sh.free[:n-1]
		if sh.frames[idx].data == nil {
			sh.frames[idx].data = make([]byte, PageSize)
		}
		return idx, nil
	}
	idx := sh.lruTail
	if idx == noFrame {
		return 0, ErrPoolFull
	}
	sh.lruRemove(idx)
	f := &sh.frames[idx]
	if f.dirty {
		if err := sh.store.WritePage(f.id, f.data); err != nil {
			// The victim stays resident and dirty. Relink it into the LRU
			// list — it was already unlinked above, and leaving it orphaned
			// would both leak the frame (never evictable again) and corrupt
			// the list when a later Get of its page unlinks it a second
			// time.
			sh.lruPush(idx)
			return 0, err
		}
		sh.stats.Writes++
	}
	delete(sh.table, f.id)
	f.id = InvalidPage
	f.dirty = false
	sh.stats.Evictions++
	return idx, nil
}

func (sh *poolShard) unpin(idx int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := &sh.frames[idx]
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned frame (page %d)", f.id))
	}
	f.pins--
	if f.pins == 0 {
		sh.lruPush(idx)
	}
}

// lruPush links idx at the head (most recently used end) of the LRU list.
// Called with the shard lock held.
func (sh *poolShard) lruPush(idx int) {
	f := &sh.frames[idx]
	f.prev = noFrame
	f.next = sh.lruHead
	if sh.lruHead != noFrame {
		sh.frames[sh.lruHead].prev = idx
	}
	sh.lruHead = idx
	if sh.lruTail == noFrame {
		sh.lruTail = idx
	}
}

// lruAppend links idx at the tail (evict-first end) of the LRU list.
// Called with the shard lock held.
func (sh *poolShard) lruAppend(idx int) {
	f := &sh.frames[idx]
	f.next = noFrame
	f.prev = sh.lruTail
	if sh.lruTail != noFrame {
		sh.frames[sh.lruTail].next = idx
	}
	sh.lruTail = idx
	if sh.lruHead == noFrame {
		sh.lruHead = idx
	}
}

// lruRemove unlinks idx from the LRU list. Called with the shard lock
// held.
func (sh *poolShard) lruRemove(idx int) {
	f := &sh.frames[idx]
	if f.prev != noFrame {
		sh.frames[f.prev].next = f.next
	} else {
		sh.lruHead = f.next
	}
	if f.next != noFrame {
		sh.frames[f.next].prev = f.prev
	} else {
		sh.lruTail = f.prev
	}
	f.prev, f.next = noFrame, noFrame
}
