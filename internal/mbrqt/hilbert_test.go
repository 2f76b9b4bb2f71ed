package mbrqt

import (
	"math/bits"
	"testing"

	"allnn/internal/curve"
	"allnn/internal/datagen"
	"allnn/internal/storage"
)

// TestHilbertMatchesCurve2D: in 2-D, the order the bulk load writes
// sibling cells in, applied at every level of a 2^6 x 2^6 grid, is the
// order curve.HilbertValue gives the cells' centres.
func TestHilbertMatchesCurve2D(t *testing.T) {
	const order = 6
	for x := uint64(0); x < 1<<order; x++ {
		for y := uint64(0); y < 1<<order; y++ {
			var h hilbert
			var idx uint64
			for lvl := order - 1; lvl >= 0; lvl-- {
				q := uint32(x>>lvl&1 | (y>>lvl&1)<<1)
				w := h.rank(q, 2)
				idx = idx<<2 | uint64(w)
				h = h.child(w, 2)
			}
			if want := curve.HilbertValue(order, x, y); idx != want {
				t.Fatalf("cell (%d, %d): rank %d, curve.HilbertValue %d", x, y, idx, want)
			}
		}
	}
}

// TestHilbertChildOrder: in 2-D to 10-D, every frame the walk reaches,
// three levels down from the root, visits each of the 2^d quadrant codes
// once, rank inverts quad, and consecutive children differ in exactly one
// quadrant bit.
func TestHilbertChildOrder(t *testing.T) {
	for dim := 2; dim <= 10; dim++ {
		frames := []hilbert{{}}
		for lvl := 0; lvl < 3; lvl++ {
			var next []hilbert
			for _, h := range frames {
				seen := make([]bool, 1<<dim)
				prev := uint32(0)
				for w := uint32(0); w < 1<<dim; w++ {
					q := h.quad(w, dim)
					if q >= 1<<dim || seen[q] {
						t.Fatalf("%d-D frame %+v: position %d gives quadrant %d twice or out of range", dim, h, w, q)
					}
					seen[q] = true
					if h.rank(q, dim) != w {
						t.Fatalf("%d-D frame %+v: rank(quad(%d)) = %d", dim, h, w, h.rank(q, dim))
					}
					if w > 0 && bits.OnesCount32(q^prev) != 1 {
						t.Fatalf("%d-D frame %+v: children %d and %d (quadrants %b, %b) differ in %d bits",
							dim, h, w-1, w, prev, q, bits.OnesCount32(q^prev))
					}
					prev = q
					// Keep a few frames per level: the first, the last and
					// one in the middle.
					if w == 0 || w == 1<<dim-1 || w == 1<<(dim-1) {
						next = append(next, h.child(w, dim))
					}
				}
			}
			frames = next
		}
	}
}

// TestBulkLoadFillsLeafPages: a TAC 200 K bulk load packs its leaf
// records onto pages at least 90 % full.
func TestBulkLoadFillsLeafPages(t *testing.T) {
	pages := loadPages(t, pinnedSet{name: "tac2d_200k", pts: datagen.TACSurrogate(1, 200_000)})
	leafPages, used := 0, 0
	for _, page := range pages[1:] { // page 0 is the meta page
		n := pageNumSlots(page)
		if n == 0 || page[slotOffset(page, 0)] != nodeTypeLeaf {
			continue
		}
		leafPages++
		used += recHeaderLen + n*slotEntryLen + pageLiveBytes(page)
	}
	fill := float64(used) / float64(leafPages*storage.PageSize)
	t.Logf("%d leaf pages, %.1f %% full", leafPages, 100*fill)
	if fill < 0.90 {
		t.Errorf("leaf pages %.1f %% full, want at least 90 %%", 100*fill)
	}
}
