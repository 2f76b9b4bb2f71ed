package mbrqt

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/index/indextest"
	"allnn/internal/storage"
)

// visitPage stores data as one page of a fresh tree (cut or zero-padded to
// the page size) and runs the in-place visitor on the node at its given
// slot, beside readNode on the same ref, and then the point-query scan
// kernels over the same node. Whatever the bytes are, the visitor must not
// panic, must fail only with ErrCorruptPage, must agree with readNode on
// success and on the entries its Blocks decode to, must hand out nothing
// past the first bad record, and must leave no frame pinned; the kernels
// must stay inside every Block they are handed.
func visitPage(t *testing.T, data []byte, slot, dim int) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), 8)
	f, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), data)
	f.MarkDirty()
	ref := makeRef(f.ID(), slot&slotMask)
	f.Release()
	tree := &Tree{pool: pool, rs: newRecordStore(pool), dim: dim}

	want, wantErr := tree.readNode(ref)
	got := newEntryDigest()
	visitErr := tree.Visit(storage.PageID(ref), func(b index.Block) error {
		for _, e := range indextest.Entries(b) {
			if e.IsObject() {
				got.add(uint64(e.Object), 0, e.Point, nil)
			} else {
				got.add(uint64(e.Child), e.Count, e.MBR.Lo, e.MBR.Hi)
			}
		}
		return nil
	})
	indextest.ScanNode(t, tree, storage.PageID(ref))
	storage.RequireNoPinnedFrames(t, pool)
	if (visitErr == nil) != (wantErr == nil) {
		t.Fatalf("Visit returned %v, readNode %v", visitErr, wantErr)
	}
	if visitErr != nil {
		if !storage.IsCorrupt(visitErr) {
			t.Fatalf("visit error does not wrap ErrCorruptPage: %v", visitErr)
		}
		// The slots handed out before the failure are those of the
		// records that parsed: whole records, in chain order.
		n, ref, leaf := 0, ref, false
		for steps := 0; ; steps++ {
			fr, err := pool.Get(ref.page())
			if err != nil {
				break
			}
			rec, err := recordFromPage(fr.Data(), ref.slot())
			var v recordView
			if err == nil {
				v, err = parseRecord(rec, dim, steps == 0, leaf)
			}
			fr.Release()
			if err != nil || n+v.num > got.n {
				break
			}
			n, ref, leaf = n+v.num, v.next, v.leaf
		}
		if n != got.n {
			t.Fatalf("failed visit handed out %d slots, the records before the bad one hold %d", got.n, n)
		}
		return
	}
	wantDigest := newEntryDigest()
	for i := range want.objects {
		wantDigest.add(uint64(want.objects[i].id), 0, want.objects[i].pt, nil)
	}
	for i := range want.children {
		c := &want.children[i]
		wantDigest.add(uint64(c.ref), c.count, c.mbr.Lo, c.mbr.Hi)
	}
	if got.n != wantDigest.n || got.h.Sum64() != wantDigest.h.Sum64() {
		t.Fatalf("Visit hands out %d slots, readNode decodes %d entries, or their contents differ", got.n, wantDigest.n)
	}
}

// entryDigest counts and hashes a sequence of node entries (coordinates
// by bit pattern, so NaNs compare).
type entryDigest struct {
	n int
	h hash.Hash64
}

func newEntryDigest() *entryDigest { return &entryDigest{h: fnv.New64a()} }

func (g *entryDigest) add(ref uint64, count uint32, lo, hi []float64) {
	g.n++
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		g.h.Write(b[:])
	}
	put(ref)
	put(uint64(count))
	for _, v := range lo {
		put(math.Float64bits(v))
	}
	for _, v := range hi {
		put(math.Float64bits(v))
	}
}

// pageWithRecord renders a slotted page holding rec in slot 0.
func pageWithRecord(rec []byte) []byte {
	page := make([]byte, storage.PageSize)
	initPage(page)
	high := storage.PageSize - len(rec)
	copy(page[high:], rec)
	setPageNumSlots(page, 1)
	setPageFreeHigh(page, high)
	setSlot(page, 0, high, len(rec))
	return page
}

// seedRecords renders one valid leaf record, one valid internal record
// and, from 2-D up, one valid internal head record of a split that halved
// dimension 1 alone, at the given dimensionality, so the fuzzers start
// from the real record format.
func seedRecords(dim int) (leaf, internal, masked []byte) {
	t := &Tree{dim: dim}
	pt := make(geom.Point, dim)
	for d := range pt {
		pt[d] = float64(d) + 0.5
	}
	leafSegs := t.serializeNode(&node{leaf: true, objects: []object{{id: 42, pt: pt}}})
	mbr := geom.NewRect(pt.Clone(), pt.Clone())
	intSegs := t.serializeNode(&node{children: []childSlot{{quad: 3, ref: 7, count: 1, mbr: mbr}}})
	if dim > 1 {
		masked = t.serializeNode(&node{mask: 0b10, children: []childSlot{{quad: 0b10, ref: 7, count: 1, mbr: mbr}}})[0]
	}
	return leafSegs[0], intSegs[0], masked
}

// FuzzDecodeRecord feeds arbitrary bytes to the node-record decoder: it
// must reject malformed input with an error wrapping ErrCorruptPage and
// never panic or read out of bounds.
func FuzzDecodeRecord(f *testing.F) {
	for _, dim := range []int{1, 2, 3, 10} {
		leaf, internal, masked := seedRecords(dim)
		f.Add(leaf, uint8(dim), true)
		f.Add(internal, uint8(dim), true)
		f.Add(internal, uint8(dim), false)
		if masked != nil {
			f.Add(masked, uint8(dim), true)
			f.Add(masked, uint8(dim), false)
		}
	}
	f.Add([]byte{}, uint8(2), true)
	f.Add([]byte{1, 0, 255, 255, 0, 0, 0, 0}, uint8(2), true)
	f.Fuzz(func(t *testing.T, rec []byte, dimByte uint8, first bool) {
		dim := int(dimByte)%MaxDim + 1
		visitRecord(t, rec, dim)
		n := &node{}
		next, err := decodeRecord(n, rec, dim, first)
		if err != nil {
			if !storage.IsCorrupt(err) {
				t.Fatalf("decode error does not wrap ErrCorruptPage: %v", err)
			}
			return
		}
		// A record that decodes must round-trip its entry count.
		if n.leaf && len(n.objects) == 0 && len(rec) > recNodeHeader {
			t.Fatalf("non-empty leaf record decoded to zero objects")
		}
		_ = next
	})
}

// visitRecord feeds rec to the visitor as the head record of a node.
func visitRecord(t *testing.T, rec []byte, dim int) {
	if len(rec) == 0 || len(rec) > maxRecordSize {
		return // not storable as a record
	}
	visitPage(t, pageWithRecord(rec), 0, dim)
}

// FuzzRecordFromPage feeds arbitrary bytes to the slotted-page accessor.
func FuzzRecordFromPage(f *testing.F) {
	// A valid one-record page.
	page := pageWithRecord([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(page, 0)
	f.Add(page, 1)
	f.Add([]byte{}, 0)
	f.Add(make([]byte, recHeaderLen), -1)
	f.Fuzz(func(t *testing.T, data []byte, slot int) {
		visitPage(t, data, slot, 2)
		out, err := recordFromPage(data, slot)
		if err != nil {
			if !storage.IsCorrupt(err) {
				t.Fatalf("accessor error does not wrap ErrCorruptPage: %v", err)
			}
			return
		}
		if len(out) == 0 {
			t.Fatal("accessor returned an empty record without error")
		}
		// The record must lie inside the page: stash a byte through the
		// alias and find it in data.
		dirLen := recHeaderLen + pageNumSlots(data)*slotEntryLen
		off := int(binary.LittleEndian.Uint16(data[recHeaderLen+slot*slotEntryLen:]))
		if off < dirLen || off+len(out) > len(data) {
			t.Fatalf("record [%d, %d) escapes page of %d bytes", off, off+len(out), len(data))
		}
	})
}

// FuzzVisit feeds arbitrary page bytes to the in-place node visitor: a
// slotted page whose records may be damaged in any way, and whose chain
// refs may dangle, leave the page or loop back into it.
func FuzzVisit(f *testing.F) {
	for _, dim := range []int{1, 2, 3, 10} {
		leaf, internal, masked := seedRecords(dim)
		f.Add(pageWithRecord(leaf), uint16(0), uint8(dim))
		f.Add(pageWithRecord(internal), uint16(0), uint8(dim))
		if masked != nil {
			f.Add(pageWithRecord(masked), uint16(0), uint8(dim))
		}
		// A leaf whose continuation is itself: a ref cycle.
		loop := slices.Clone(leaf)
		binary.LittleEndian.PutUint32(loop[4:], uint32(makeRef(0, 0)))
		f.Add(pageWithRecord(loop), uint16(0), uint8(dim))
	}
	// Two records chained inside one page, the second of the wrong type.
	leaf, internal, masked := seedRecords(2)
	binary.LittleEndian.PutUint32(leaf[4:], uint32(makeRef(0, 1)))
	page := pageWithRecord(leaf)
	high := pageFreeHigh(page) - len(internal)
	copy(page[high:], internal)
	setPageNumSlots(page, 2)
	setPageFreeHigh(page, high)
	setSlot(page, 1, high, len(internal))
	f.Add(page, uint16(0), uint8(2))
	// A masked head record chained to a second internal record, which
	// must not carry a mask of its own.
	head := slices.Clone(masked)
	binary.LittleEndian.PutUint32(head[4:], uint32(makeRef(0, 1)))
	page = pageWithRecord(head)
	high = pageFreeHigh(page) - len(masked)
	copy(page[high:], masked)
	setPageNumSlots(page, 2)
	setPageFreeHigh(page, high)
	setSlot(page, 1, high, len(masked))
	f.Add(page, uint16(0), uint8(2))
	f.Add([]byte{}, uint16(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, slot uint16, dimByte uint8) {
		visitPage(t, data, int(slot), int(dimByte)%MaxDim+1)
	})
}
