package rstar

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"allnn/internal/index"
	"allnn/internal/index/indextest"
	"allnn/internal/storage"
)

// visitPage stores data as a node page of a fresh tree (cut or zero-padded
// to the page size) and runs the in-place visitor on it beside decodeNode
// on the same bytes, and then the point-query scan kernels over the same
// node. Whatever the bytes are, the visitor must not panic, must fail
// exactly when decodeNode does, with ErrCorruptPage and before handing out
// a single slot, must agree with it on the entries its Block decodes to,
// and must leave no frame pinned; the kernels must stay inside the Block.
func visitPage(t *testing.T, data []byte, dim int) {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemStore(), 8)
	f, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), data)
	f.MarkDirty()
	pid := f.ID()
	want, wantErr := decodeNode(f.Data(), dim)
	f.Release()
	tree := &Tree{pool: pool, dim: dim}

	// Coordinates compare by bit pattern, so that NaNs do.
	bits := func(p []float64) []uint64 {
		out := make([]uint64, len(p))
		for i, v := range p {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	slots := 0
	visitErr := tree.Visit(pid, func(b index.Block) error {
		for _, e := range indextest.Entries(b) {
			if wantErr != nil || slots >= len(want.entries) {
				t.Fatalf("slot %d handed out; decodeNode: %v, %d entries", slots, wantErr, len(want.entries))
			}
			w := &want.entries[slots]
			if e.IsObject() != want.leaf || e.Child != w.child || e.Count != w.count || e.Object != w.obj ||
				!slices.Equal(bits(e.Point), bits(w.pt)) ||
				!slices.Equal(bits(e.MBR.Lo), bits(w.mbr.Lo)) || !slices.Equal(bits(e.MBR.Hi), bits(w.mbr.Hi)) {
				t.Fatalf("slot %d: visited %+v, decoded %+v", slots, e, *w)
			}
			slots++
		}
		return nil
	})
	indextest.ScanNode(t, tree, pid)
	storage.RequireNoPinnedFrames(t, pool)
	if (visitErr == nil) != (wantErr == nil) {
		t.Fatalf("Visit returned %v, decodeNode %v", visitErr, wantErr)
	}
	if visitErr != nil && !storage.IsCorrupt(visitErr) {
		t.Fatalf("visit error does not wrap ErrCorruptPage: %v", visitErr)
	}
	if visitErr == nil && slots != len(want.entries) {
		t.Fatalf("visit handed out %d slots, decodeNode %d entries", slots, len(want.entries))
	}
}

// seedNodePage hand-renders a valid node page at the given dimensionality
// using the same layout writeNode produces.
func seedNodePage(dim int, leaf bool) []byte {
	data := make([]byte, storage.PageSize)
	if leaf {
		data[offType] = nodeTypeLeaf
	} else {
		data[offType] = nodeTypeInternal
	}
	binary.LittleEndian.PutUint16(data[offNumEntries:], 2)
	off := pageHeaderSize
	for i := 0; i < 2; i++ {
		if leaf {
			binary.LittleEndian.PutUint64(data[off:], uint64(100+i))
			off += 8
			for d := 0; d < dim; d++ {
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(float64(i*dim+d)))
				off += 8
			}
		} else {
			binary.LittleEndian.PutUint32(data[off:], uint32(5+i))
			binary.LittleEndian.PutUint32(data[off+4:], 17)
			off += 8
			for d := 0; d < 2*dim; d++ {
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(float64(d)))
				off += 8
			}
		}
	}
	return data
}

// FuzzDecodeNode feeds arbitrary bytes to the R*-tree node decoder and,
// as a stored page, to the in-place visitor built on the same parser:
// both must reject malformed pages with an error wrapping ErrCorruptPage
// and never panic or read out of bounds.
func FuzzDecodeNode(f *testing.F) {
	for _, dim := range []int{1, 2, 3, 10} {
		f.Add(seedNodePage(dim, true), uint8(dim))
		f.Add(seedNodePage(dim, false), uint8(dim))
	}
	f.Add([]byte{}, uint8(2))
	// A page whose entry count overruns the page.
	bad := make([]byte, storage.PageSize)
	bad[offType] = nodeTypeLeaf
	binary.LittleEndian.PutUint16(bad[offNumEntries:], 0xFFFF)
	f.Add(bad, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, dimByte uint8) {
		dim := int(dimByte)%16 + 1
		visitPage(t, data, dim)
		n, err := decodeNode(data, dim)
		if err != nil {
			if !storage.IsCorrupt(err) {
				t.Fatalf("decode error does not wrap ErrCorruptPage: %v", err)
			}
			return
		}
		entrySize := internalEntrySize(dim)
		if n.leaf {
			entrySize = leafEntrySize(dim)
		}
		if pageHeaderSize+len(n.entries)*entrySize > len(data) {
			t.Fatalf("decoded %d entries from a %d-byte page", len(n.entries), len(data))
		}
	})
}
