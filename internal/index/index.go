// Package index defines the common shape of the disk-resident spatial
// indexes (MBRQT and R*-tree) so that the ANN engine in internal/core can
// traverse either one. This is what makes the paper's MBA/RBA pair "the
// same algorithm over two indexes": the traversal only sees Entries.
package index

import (
	"encoding/binary"
	"fmt"

	"allnn/internal/geom"
	"allnn/internal/storage"
)

// ObjectID identifies a data object (point) in a dataset. IDs are assigned
// by the caller at insertion time and reported back in query results.
type ObjectID uint64

// EntryKind distinguishes the three things an index traversal encounters.
type EntryKind uint8

const (
	// NodeEntry refers to an internal or leaf node of the tree; it can be
	// expanded into child entries.
	NodeEntry EntryKind = iota
	// ObjectEntry is a data point.
	ObjectEntry
)

// Entry is a uniform view of one slot of an index node: either a child
// node reference with its MBR and subtree count, or a data object.
type Entry struct {
	Kind EntryKind
	// MBR bounds everything below this entry. For an ObjectEntry it is
	// the degenerate rectangle of the point.
	MBR geom.Rect
	// Child is the page of the referenced node (NodeEntry only).
	Child storage.PageID
	// Count is the number of data points in the subtree (1 for objects).
	Count uint32
	// Object and Point are set for ObjectEntry.
	Object ObjectID
	Point  geom.Point
}

// IsObject reports whether the entry is a data point.
func (e *Entry) IsObject() bool { return e.Kind == ObjectEntry }

// Block is one validated node record as it lies in its page: N slots of
// Stride bytes each in Data. Both trees lay a leaf slot out as the u64
// object id followed by Dim × f64 coordinates, and start an internal slot
// with the u32 child reference; where the rest of an internal slot lies
// is the tree's business, which it states in CountOff and BoxOff. All
// integers and floats are little-endian. A Block is passed by value: it
// is a view, and a pointer to it would escape through the visitor.
type Block struct {
	Leaf bool
	N    int // slots in Data
	Dim  int
	// Stride is the size of one slot in bytes.
	Stride int
	// CountOff and BoxOff locate, inside an internal slot, the u32
	// subtree point count and the MBR (Dim × f64 low corner, then
	// Dim × f64 high corner). Unused for a leaf.
	CountOff, BoxOff int
	// Data holds exactly N·Stride bytes and aliases the pinned page.
	Data []byte
}

// Object decodes leaf slot i: its point into pt (len Dim), returning the
// object id.
func (b Block) Object(i int, pt []float64) ObjectID {
	slot := b.Data[i*b.Stride:]
	for d := range pt {
		pt[d] = f64at(slot[8+8*d:])
	}
	return ObjectID(binary.LittleEndian.Uint64(slot))
}

// Child decodes internal slot i: its MBR into lo and hi (len Dim each),
// returning the child reference and the subtree point count.
func (b Block) Child(i int, lo, hi []float64) (storage.PageID, uint32) {
	slot := b.Data[i*b.Stride:]
	for d := range lo {
		lo[d] = f64at(slot[b.BoxOff+8*d:])
		hi[d] = f64at(slot[b.BoxOff+8*(b.Dim+d):])
	}
	return childAt(slot), binary.LittleEndian.Uint32(slot[b.CountOff:])
}

// Tree is the traversal interface shared by MBRQT and the R*-tree.
// The read path — Dim, Len, Root, Expand, Visit, Bounds — is safe for
// concurrent use by both implementations (the buffer pool and the
// decoded-node cache are concurrency-safe, and the cache attachment is
// an atomic pointer), which is what lets parallel workers and the
// serving layer multiplex queries over one shared tree. Mutation
// (Insert/Delete) must not run concurrently with anything else.
type Tree interface {
	// Dim returns the dimensionality of the indexed points.
	Dim() int
	// Len returns the number of indexed points.
	Len() int
	// Root returns the entry referring to the root node. For an empty
	// tree the returned entry has Count == 0.
	Root() (Entry, error)
	// Expand reads the node referenced by a NodeEntry and returns its
	// entries: child NodeEntries for an internal node, ObjectEntries for
	// a leaf. It must not be called with an ObjectEntry. The returned
	// slice may be shared (served from a decoded-node cache) and must be
	// treated as immutable by the caller.
	Expand(e *Entry) ([]Entry, error)
	// Visit reads the node stored at child (the Child of a NodeEntry, or
	// of Root) in place: it pins the node's page and calls fn once per
	// record of the node, in storage order (an R*-tree node is one
	// record, an MBRQT node one per page of its chain), and keeps
	// nothing. Each record has passed the tree's structural validation
	// before fn sees it; the Block handed to fn aliases the pinned page
	// and is valid only until fn returns. A non-nil error from fn stops
	// the visit and is returned as is; no page stays pinned once Visit
	// returns. A structurally damaged node yields an error wrapping
	// storage.ErrCorruptPage before fn has seen the damaged record.
	// Point queries traverse with Visit; joins, which expand a node once
	// per owning LPQ, use Expand and its decoded-node cache.
	Visit(child storage.PageID, fn func(Block) error) error
	// Bounds returns the MBR of all indexed points (empty rect if none).
	Bounds() geom.Rect
}

// RootEntry builds the entry Tree.Root returns for a tree of size points
// rooted at root (storage.InvalidPage while empty).
func RootEntry(dim int, root storage.PageID, size int, bounds geom.Rect) Entry {
	if root == storage.InvalidPage {
		return Entry{Kind: NodeEntry, MBR: geom.EmptyRect(dim), Child: root}
	}
	return Entry{Kind: NodeEntry, MBR: bounds.Clone(), Child: root, Count: uint32(size)}
}

// Expand is the collector behind both trees' Tree.Expand: it decodes the
// node e refers to, read through visit (the tree's Visit), into a fresh
// entry slice.
func Expand(e *Entry, visit func(storage.PageID, func(Block) error) error) ([]Entry, error) {
	if e.IsObject() {
		return nil, fmt.Errorf("index: Expand called on an object entry")
	}
	// visit is a func value, so this closure and out escape: two small
	// allocations a miss on top of the decode's own, which measured
	// cheaper than pooling a collector.
	var out []Entry
	err := visit(e.Child, func(b Block) error {
		out = appendEntries(out, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendEntries materialises b's slots behind out: one entry array per
// node (exact unless it chains) and one coordinate slab per record.
func appendEntries(out []Entry, b Block) []Entry {
	if out == nil {
		out = make([]Entry, 0, b.N)
	}
	dim := b.Dim
	if b.Leaf {
		coords := make([]float64, b.N*dim)
		for i := 0; i < b.N; i++ {
			pt := geom.Point(coords[i*dim : (i+1)*dim : (i+1)*dim])
			out = append(out, Entry{Kind: ObjectEntry, Object: b.Object(i, pt), MBR: geom.PointRect(pt), Count: 1, Point: pt})
		}
		return out
	}
	coords := make([]float64, b.N*2*dim)
	for i := 0; i < b.N; i++ {
		c := coords[i*2*dim : (i+1)*2*dim : (i+1)*2*dim]
		mbr := geom.Rect{Lo: c[:dim:dim], Hi: c[dim:]}
		child, count := b.Child(i, mbr.Lo, mbr.Hi)
		out = append(out, Entry{Kind: NodeEntry, MBR: mbr, Child: child, Count: count})
	}
	return out
}
