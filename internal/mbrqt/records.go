package mbrqt

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"allnn/internal/storage"
)

// MBRQT nodes are variable-size records packed many-per-page into slotted
// pages, the way SHORE stores them for the paper's experiments. A
// quadtree split in D dimensions produces up to 2^D children holding a
// handful of points each; giving each its own 8 KB page (as a naive
// implementation would) shatters the index into nearly empty pages and
// destroys the I/O behaviour that makes MBRQT attractive.
//
// A bulk-loaded tree has two page classes. Leaf records fill pages in
// post-order, siblings along the Hilbert curve, so leaves near each
// other share pages. Internal records fill pages of their own (a second
// fill list, innerPages): they are few and small, so a pool keeps them
// resident, and a traversal that comes back to an evicted internal node
// does not re-read a page of leaf points to reach it. Incremental writes
// use one fill list for both kinds.
//
// Page layout:
//
//	header:  numSlots uint16 | freeHigh uint16 | 4 bytes reserved
//	slots:   numSlots x (offset uint16, length uint16), growing upward
//	records: raw bytes, allocated downward from the end of the page
//
// A record is addressed by a nodeRef: page number (22 bits) and slot
// index (10 bits). Records never span pages; nodes larger than a page
// chain multiple records through a "next" ref inside the node payload.
type nodeRef uint32

const (
	invalidRef nodeRef = ^nodeRef(0)

	slotBits     = 10
	maxSlots     = 1 << slotBits
	slotMask     = maxSlots - 1
	maxRecPages  = 1 << (32 - slotBits)
	recHeaderLen = 8
	slotEntryLen = 4

	// maxRecordSize is the largest record a single page can hold: the
	// page minus the header and one slot entry.
	maxRecordSize = storage.PageSize - recHeaderLen - slotEntryLen
)

func makeRef(page storage.PageID, slot int) nodeRef {
	return nodeRef(uint32(page)<<slotBits | uint32(slot))
}

func (r nodeRef) page() storage.PageID { return storage.PageID(uint32(r) >> slotBits) }
func (r nodeRef) slot() int            { return int(uint32(r) & slotMask) }

// recordStore manages slotted pages inside a shared buffer pool. It is
// owned by a single tree and is not safe for concurrent use, but for
// the gauges.
//
// It also owns the pages' copy-on-write lifecycle (cow.go), at the
// granularity of the slotted layout. A record on a published page is
// never overwritten in place: freeing one merely defers its ref, and
// updating one defers the old copy and allocates a new record on a
// writable page. A published page re-enters circulation whole, once
// every record on it is dead (pageDead) — and, unless it is young, a
// checkpoint has fenced it:
// a page with a long-lived survivor record keeps its dead space until
// the survivor itself is rewritten (the usual cost of no-overwrite
// storage).
type recordStore struct {
	pool *storage.BufferPool
	// fillPages is the window of the eight pages most recently claimed or
	// freed into, newest last; allocation tries them before claiming a
	// new page. Pages published since they were cached are dropped by the
	// next alloc: a batch starts with no writable page, so its first
	// allocation sweeps them all before it can use any.
	fillPages []storage.PageID
	// innerPages is the same cache for BulkLoad's internal records, which
	// alone use it: no page it hands out ever holds a leaf record.
	innerPages []storage.PageID

	// deadSlots / liveInit track per published page how many of its
	// records have been reclaimed vs how many were live when its first
	// record died (published pages are frozen, so that count is stable).
	deadSlots map[storage.PageID]int
	liveInit  map[storage.PageID]int

	writable  map[storage.PageID]bool // pages the current batch may write
	young     map[storage.PageID]bool // live pages claimed since the last checkpoint
	deferred  []nodeRef               // refs unlinked on published pages this batch
	drained   []storage.PageID        // wholly dead old pages awaiting the fence
	freePages []storage.PageID        // reusable pages, claimed newest first

	// The gauges mirror len(freePages), len(drained), the refs between
	// deferRef and DrainReclaim, and len(young), for scrapers outside the
	// writer lock.
	nFree, nDrained, nDeferred, nYoung atomic.Int64
}

func newRecordStore(pool *storage.BufferPool) *recordStore {
	return &recordStore{pool: pool, deadSlots: make(map[storage.PageID]int), liveInit: make(map[storage.PageID]int),
		writable: make(map[storage.PageID]bool), young: make(map[storage.PageID]bool)}
}

// pageDead marks a deferred-freed ref as dead now that no snapshot can
// read it, and reports whether that was the last live record of its
// (published) page.
func (rs *recordStore) pageDead(ref nodeRef) (storage.PageID, bool, error) {
	pid := ref.page()
	if _, ok := rs.liveInit[pid]; !ok {
		live, err := rs.liveSlotCount(pid)
		if err != nil {
			return pid, false, err
		}
		rs.liveInit[pid] = live
	}
	rs.deadSlots[pid]++
	if rs.deadSlots[pid] < rs.liveInit[pid] {
		return pid, false, nil
	}
	delete(rs.deadSlots, pid)
	delete(rs.liveInit, pid)
	return pid, true, nil
}

// adopt is RebuildFree's second half: live counts, per page, the records
// the tree just opened reaches. A page it reaches none on is free. One
// that also holds records an earlier process had drained gets that count
// back, so that it still comes back whole when the survivors die.
//
// The free list becomes every page of the store that live does not name,
// the meta page apart: what a previous process left dead, or claimed and
// never checkpointed. The tree must equal its durable image, with nothing
// deferred or drained — right after Open or a checkpoint, before the
// first batch. Low page ids are claimed first.
func (rs *recordStore) adopt(live map[storage.PageID]int, meta storage.PageID) error {
	for pid, n := range live {
		held, err := rs.liveSlotCount(pid)
		if err != nil {
			return err
		}
		if held > n {
			rs.liveInit[pid], rs.deadSlots[pid] = held, held-n
		}
	}
	rs.freePages = rs.freePages[:0]
	for id := storage.PageID(rs.pool.Store().NumPages()); id > 0; id-- {
		if page := id - 1; page != meta && live[page] == 0 {
			rs.freePages = append(rs.freePages, page)
		}
	}
	rs.nFree.Store(int64(len(rs.freePages)))
	return nil
}

// liveSlotCount counts the records physically present on a page. For a
// published page this is frozen, so one measurement is enough.
func (rs *recordStore) liveSlotCount(pid storage.PageID) (int, error) {
	f, err := rs.pool.Get(pid)
	if err != nil {
		return 0, err
	}
	defer f.Release()
	data := f.Data()
	n := pageNumSlots(data)
	live := 0
	for s := 0; s < n; s++ {
		if slotLength(data, s) > 0 {
			live++
		}
	}
	return live, nil
}

// --- page accessors ----------------------------------------------------------

func pageNumSlots(data []byte) int { return int(binary.LittleEndian.Uint16(data)) }
func pageFreeHigh(data []byte) int { return int(binary.LittleEndian.Uint16(data[2:])) }
func setPageNumSlots(data []byte, n int) {
	binary.LittleEndian.PutUint16(data, uint16(n))
}
func setPageFreeHigh(data []byte, v int) {
	binary.LittleEndian.PutUint16(data[2:], uint16(v))
}

func slotOffset(data []byte, slot int) int {
	return int(binary.LittleEndian.Uint16(data[recHeaderLen+slot*slotEntryLen:]))
}
func slotLength(data []byte, slot int) int {
	return int(binary.LittleEndian.Uint16(data[recHeaderLen+slot*slotEntryLen+2:]))
}
func setSlot(data []byte, slot, offset, length int) {
	binary.LittleEndian.PutUint16(data[recHeaderLen+slot*slotEntryLen:], uint16(offset))
	binary.LittleEndian.PutUint16(data[recHeaderLen+slot*slotEntryLen+2:], uint16(length))
}

// initPage prepares a zeroed page as a slotted record page.
func initPage(data []byte) {
	setPageNumSlots(data, 0)
	setPageFreeHigh(data, storage.PageSize)
}

// pageFreeSpace returns the bytes available for one more record,
// accounting for a possibly needed new slot entry and assuming
// compaction (live bytes are what they are; dead space is reclaimable).
func pageLiveBytes(data []byte) int {
	n := pageNumSlots(data)
	live := 0
	for s := 0; s < n; s++ {
		live += slotLength(data, s)
	}
	return live
}

func pageFreeForNewRecord(data []byte) int {
	n := pageNumSlots(data)
	// A freed slot can be reused without growing the directory.
	dirLen := recHeaderLen + n*slotEntryLen
	reuse := false
	for s := 0; s < n; s++ {
		if slotLength(data, s) == 0 {
			reuse = true
			break
		}
	}
	if !reuse {
		if n >= maxSlots {
			return 0
		}
		dirLen += slotEntryLen
	}
	return storage.PageSize - dirLen - pageLiveBytes(data)
}

// compactPage rewrites all live records contiguously at the high end of
// the page, leaving maximal contiguous free space in the middle. Slot
// indices (and therefore refs) are preserved.
func compactPage(data []byte) {
	n := pageNumSlots(data)
	type rec struct {
		slot, off, length int
	}
	var recs []rec
	for s := 0; s < n; s++ {
		if l := slotLength(data, s); l > 0 {
			recs = append(recs, rec{s, slotOffset(data, s), l})
		}
	}
	// Copy live records out, then lay them back from the top.
	scratch := make([]byte, 0, storage.PageSize)
	for i := range recs {
		scratch = append(scratch, data[recs[i].off:recs[i].off+recs[i].length]...)
	}
	high := storage.PageSize
	consumed := 0
	for i := range recs {
		high -= recs[i].length
		copy(data[high:], scratch[consumed:consumed+recs[i].length])
		consumed += recs[i].length
		setSlot(data, recs[i].slot, high, recs[i].length)
	}
	setPageFreeHigh(data, high)
}

// alloc stores record bytes on the shared fill list and returns their ref.
func (rs *recordStore) alloc(rec []byte) (nodeRef, error) { return rs.allocOn(&rs.fillPages, rec) }

// allocOn stores record bytes on a page of the given fill list, or on a
// page it claims and adds to that list, and returns their ref. The list
// is a window of the eight newest pages: one too full for this record
// stays in it for a smaller one, and leaves when it is published or when
// a newer page pushes it out. So a record shares a page only with
// records written near it, and a page is closed by age, not by the
// first record it refuses. Bulk load, inserts and copy-on-write
// rewrites all place records by this one rule.
func (rs *recordStore) allocOn(fill *[]storage.PageID, rec []byte) (nodeRef, error) {
	if len(rec) > maxRecordSize {
		return invalidRef, fmt.Errorf("mbrqt: record of %d bytes exceeds page capacity %d", len(rec), maxRecordSize)
	}
	// Try the cached fill pages, newest first.
	for i := len(*fill) - 1; i >= 0; i-- {
		pid := (*fill)[i]
		if !rs.writable[pid] {
			// Published since it was cached: never write it.
			*fill = append((*fill)[:i], (*fill)[i+1:]...)
			continue
		}
		ref, ok, err := rs.tryAllocIn(pid, rec)
		if err != nil {
			return invalidRef, err
		}
		if ok {
			return ref, nil
		}
	}
	// A free page before a new one; the record always fits an empty page
	// (checked above).
	f, err := rs.claim()
	if err != nil {
		return invalidRef, err
	}
	pid := f.ID()
	if uint32(pid) >= maxRecPages {
		f.Release()
		return invalidRef, fmt.Errorf("mbrqt: store exceeds the addressable %d pages", maxRecPages)
	}
	initPage(f.Data())
	f.MarkDirty()
	f.Release()
	noteFillPage(fill, pid)
	ref, ok, err := rs.tryAllocIn(pid, rec)
	if err != nil {
		return invalidRef, err
	}
	if !ok {
		return invalidRef, fmt.Errorf("mbrqt: empty page cannot hold %d-byte record", len(rec))
	}
	return ref, nil
}

// tryAllocIn attempts to place rec into page pid.
func (rs *recordStore) tryAllocIn(pid storage.PageID, rec []byte) (nodeRef, bool, error) {
	f, err := rs.pool.Get(pid)
	if err != nil {
		return invalidRef, false, err
	}
	defer f.Release()
	data := f.Data()
	if pageFreeForNewRecord(data) < len(rec) {
		return invalidRef, false, nil
	}
	n := pageNumSlots(data)
	slot := -1
	for s := 0; s < n; s++ {
		if slotLength(data, s) == 0 {
			slot = s
			break
		}
	}
	// Directory length after a possible growth by one entry.
	dirLen := recHeaderLen + n*slotEntryLen
	if slot == -1 {
		dirLen += slotEntryLen
	}
	// Compact first if the contiguous middle cannot take both the record
	// and the (possibly grown) directory. Compaction must happen before
	// the directory grows: the new slot entry's bytes may currently hold
	// record data.
	if pageFreeHigh(data)-dirLen < len(rec) {
		compactPage(data)
	}
	if slot == -1 {
		slot = n
		setPageNumSlots(data, n+1)
		setSlot(data, slot, 0, 0)
	}
	high := pageFreeHigh(data) - len(rec)
	copy(data[high:], rec)
	setPageFreeHigh(data, high)
	setSlot(data, slot, high, len(rec))
	f.MarkDirty()
	return makeRef(pid, slot), true, nil
}

// recordFromPage locates slot's record inside a slotted page, validating
// every offset against the page bounds first: data may be arbitrary bytes
// (a page that passed its checksum can still be logically damaged, and
// the fuzzer feeds garbage directly).
// The returned slice aliases data. Structural violations wrap
// storage.ErrCorruptPage.
func recordFromPage(data []byte, slot int) ([]byte, error) {
	if len(data) < recHeaderLen {
		return nil, fmt.Errorf("mbrqt: slotted page truncated to %d bytes: %w", len(data), storage.ErrCorruptPage)
	}
	n := pageNumSlots(data)
	dirLen := recHeaderLen + n*slotEntryLen
	if n > maxSlots || dirLen > len(data) {
		return nil, fmt.Errorf("mbrqt: slotted page claims %d slots: %w", n, storage.ErrCorruptPage)
	}
	if slot < 0 || slot >= n {
		return nil, fmt.Errorf("mbrqt: dangling record ref: slot %d of %d: %w", slot, n, storage.ErrCorruptPage)
	}
	l := slotLength(data, slot)
	if l == 0 {
		return nil, fmt.Errorf("mbrqt: dangling record ref: slot %d is free: %w", slot, storage.ErrCorruptPage)
	}
	off := slotOffset(data, slot)
	if off < dirLen || off+l > len(data) {
		return nil, fmt.Errorf("mbrqt: record slot %d spans [%d, %d) outside the page: %w",
			slot, off, off+l, storage.ErrCorruptPage)
	}
	return data[off : off+l], nil
}

// free releases the record's slot. The page is re-registered as a fill
// candidate. A record on a published page is not touched: snapshots may
// still read it, so the free is deferred until Publish hands it over
// for reclaim.
func (rs *recordStore) free(ref nodeRef) error {
	if rs.deferRef(ref) {
		return nil
	}
	f, err := rs.pool.Get(ref.page())
	if err != nil {
		return err
	}
	setSlot(f.Data(), ref.slot(), 0, 0)
	f.MarkDirty()
	f.Release()
	noteFillPage(&rs.fillPages, ref.page())
	return nil
}

// update rewrites the record, in place when it fits its page (compacting
// if needed), otherwise relocating it; the returned ref is where the
// record now lives. A record on a published page is never rewritten in
// place: the old copy is deferred for the snapshots still reading it and
// the new version lands on a writable page.
func (rs *recordStore) update(ref nodeRef, rec []byte) (nodeRef, error) {
	if len(rec) > maxRecordSize {
		return invalidRef, fmt.Errorf("mbrqt: record of %d bytes exceeds page capacity %d", len(rec), maxRecordSize)
	}
	if rs.deferRef(ref) {
		return rs.alloc(rec)
	}
	f, err := rs.pool.Get(ref.page())
	if err != nil {
		return invalidRef, err
	}
	data := f.Data()
	slot := ref.slot()
	oldLen := slotLength(data, slot)
	switch {
	case len(rec) <= oldLen:
		// Shrink or same size: overwrite in place.
		off := slotOffset(data, slot)
		copy(data[off:], rec)
		setSlot(data, slot, off, len(rec))
		f.MarkDirty()
		f.Release()
		return ref, nil
	case pageLiveBytes(data)-oldLen+len(rec) <=
		storage.PageSize-recHeaderLen-pageNumSlots(data)*slotEntryLen:
		// Fits after compaction: drop the old copy, compact, re-place.
		setSlot(data, slot, 0, 0)
		compactPage(data)
		high := pageFreeHigh(data) - len(rec)
		copy(data[high:], rec)
		setPageFreeHigh(data, high)
		setSlot(data, slot, high, len(rec))
		f.MarkDirty()
		f.Release()
		return ref, nil
	default:
		// Relocate.
		setSlot(data, slot, 0, 0)
		f.MarkDirty()
		f.Release()
		noteFillPage(&rs.fillPages, ref.page())
		return rs.alloc(rec)
	}
}

// noteFillPage adds pid to a fill list as its newest page, keeping the
// eight newest.
func noteFillPage(fill *[]storage.PageID, pid storage.PageID) {
	for _, p := range *fill {
		if p == pid {
			return
		}
	}
	*fill = append(*fill, pid)
	if len(*fill) > 8 {
		*fill = (*fill)[1:]
	}
}
