// Package rstar implements a disk-resident R*-tree (Beckmann, Kriegel,
// Schneider, Seeger; SIGMOD 1990): ChooseSubtree with minimal overlap
// enlargement at the leaf level, the margin-driven split axis selection,
// and forced reinsertion on first overflow per level. It is the index the
// paper's BNN and RBA competitors run on, built — by STR bulk load, or by
// insertion for Fig 3(a) — and then only read: there is no delete.
//
// Every node occupies exactly one 8 KB page; the fanout is whatever fits
// (around 200 entries in 2-D, around 45 in 10-D). Entries carry subtree
// point counts in addition to MBRs so that AkNN pruning bounds can use
// cardinality information.
package rstar

import (
	"encoding/binary"
	"fmt"
	"math"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

const (
	nodeTypeLeaf     = 1
	nodeTypeInternal = 2

	pageHeaderSize = 8
	offType        = 0
	offNumEntries  = 2
)

// entry is one slot of a node: a child subtree for internal nodes, a data
// point for leaves.
type entry struct {
	mbr   geom.Rect
	child storage.PageID // internal only
	count uint32         // points under the entry (1 for leaf entries)
	obj   index.ObjectID // leaf only
	pt    geom.Point     // leaf only
}

type node struct {
	leaf    bool
	entries []entry
}

func internalEntrySize(dim int) int { return 4 + 4 + 16*dim }
func leafEntrySize(dim int) int     { return 8 + 8*dim }

// maxEntriesFor returns the per-node fanout for the given entry size.
func maxEntriesFor(entrySize int) int {
	return (storage.PageSize - pageHeaderSize) / entrySize
}

// mbr returns the tight MBR over the node's entries.
func (n *node) mbr(dim int) geom.Rect {
	r := geom.EmptyRect(dim)
	for i := range n.entries {
		r.ExpandRect(n.entries[i].mbr)
	}
	return r
}

// countPoints sums the subtree counts of the node's entries.
func (n *node) countPoints() uint32 {
	var c uint32
	for i := range n.entries {
		c += n.entries[i].count
	}
	return c
}

// nodeView is one node page parsed in place: parseNode has done every
// structural check, so the entries decode straight from body (which
// aliases the page) with no further validation. readNode and Visit are
// collectors over it.
type nodeView struct {
	leaf bool
	num  int
	body []byte // num entries of the node's type
}

// parseNode validates a node page's header before trusting any count in
// it: data may be arbitrary bytes (a logically damaged page that still
// checksums, fuzzer input). Structural violations wrap
// storage.ErrCorruptPage.
func parseNode(data []byte, dim int) (nodeView, error) {
	if len(data) < pageHeaderSize {
		return nodeView{}, fmt.Errorf("rstar: node page truncated to %d bytes: %w", len(data), storage.ErrCorruptPage)
	}
	var v nodeView
	switch data[offType] {
	case nodeTypeLeaf:
		v.leaf = true
	case nodeTypeInternal:
		v.leaf = false
	default:
		return nodeView{}, fmt.Errorf("rstar: invalid node type %d: %w", data[offType], storage.ErrCorruptPage)
	}
	v.num = int(binary.LittleEndian.Uint16(data[offNumEntries:]))
	entrySize := internalEntrySize(dim)
	if v.leaf {
		entrySize = leafEntrySize(dim)
	}
	if pageHeaderSize+v.num*entrySize > len(data) {
		return nodeView{}, fmt.Errorf("rstar: node claims %d entries, page fits %d: %w",
			v.num, (len(data)-pageHeaderSize)/entrySize, storage.ErrCorruptPage)
	}
	v.body = data[pageHeaderSize : pageHeaderSize+v.num*entrySize]
	return v, nil
}

// block describes the node's entries, to a Tree.Visit visitor and to
// collectNode. An internal slot is child page, count, MBR.
func (v nodeView) block(dim int) index.Block {
	if v.leaf {
		return index.Block{Leaf: true, N: v.num, Dim: dim, Stride: leafEntrySize(dim), Data: v.body}
	}
	return index.Block{N: v.num, Dim: dim, Stride: internalEntrySize(dim), CountOff: 4, BoxOff: 8, Data: v.body}
}

// collectNode materialises a parsed node. Every entry owns its
// coordinate slices: Insert moves entries between nodes and grows MBRs in
// place.
func collectNode(v nodeView, dim int) *node {
	n := &node{leaf: v.leaf, entries: make([]entry, v.num)}
	b := v.block(dim)
	for i := range n.entries {
		e := &n.entries[i]
		if v.leaf {
			e.pt = make(geom.Point, dim)
			e.obj = b.Object(i, e.pt)
			e.count = 1
			e.mbr = geom.NewRect(e.pt, e.pt)
		} else {
			e.mbr = geom.Rect{Lo: make(geom.Point, dim), Hi: make(geom.Point, dim)}
			e.child, e.count = b.Child(i, e.mbr.Lo, e.mbr.Hi)
		}
	}
	return n
}

// decodeNode parses a node page into its in-memory form (see parseNode
// for the validation).
func decodeNode(data []byte, dim int) (*node, error) {
	v, err := parseNode(data, dim)
	if err != nil {
		return nil, err
	}
	return collectNode(v, dim), nil
}

// viewNode pins the node page at pid and hands its parsed view to fn; the
// view is valid only until fn returns, and the page is unpinned whether
// fn fails or not.
func (t *Tree) viewNode(pid storage.PageID, fn func(v nodeView) error) error {
	f, err := t.pool.Get(pid)
	if err != nil {
		return fmt.Errorf("rstar: read node page %d: %w", pid, err)
	}
	defer f.Release()
	v, err := parseNode(f.Data(), t.dim)
	if err != nil {
		return fmt.Errorf("rstar: page %d: %w", pid, err)
	}
	return fn(v)
}

// readNode loads the node at pid.
func (t *Tree) readNode(pid storage.PageID) (*node, error) {
	var n *node
	err := t.viewNode(pid, func(v nodeView) error {
		n = collectNode(v, t.dim)
		return nil
	})
	return n, err
}

// writeNode stores n in place at pid.
func (t *Tree) writeNode(pid storage.PageID, n *node) error {
	var max int
	if n.leaf {
		max = maxEntriesFor(leafEntrySize(t.dim))
	} else {
		max = maxEntriesFor(internalEntrySize(t.dim))
	}
	if len(n.entries) > max {
		return fmt.Errorf("rstar: node with %d entries exceeds page fanout %d", len(n.entries), max)
	}
	f, err := t.pool.Get(pid)
	if err != nil {
		return fmt.Errorf("rstar: write node page %d: %w", pid, err)
	}
	defer f.Release()
	data := f.Data()
	if n.leaf {
		data[offType] = nodeTypeLeaf
	} else {
		data[offType] = nodeTypeInternal
	}
	binary.LittleEndian.PutUint16(data[offNumEntries:], uint16(len(n.entries)))
	off := pageHeaderSize
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			binary.LittleEndian.PutUint64(data[off:], uint64(e.obj))
			off += 8
			for d := 0; d < t.dim; d++ {
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(e.pt[d]))
				off += 8
			}
		}
	} else {
		for i := range n.entries {
			e := &n.entries[i]
			binary.LittleEndian.PutUint32(data[off:], uint32(e.child))
			binary.LittleEndian.PutUint32(data[off+4:], e.count)
			off += 8
			for d := 0; d < t.dim; d++ {
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(e.mbr.Lo[d]))
				off += 8
			}
			for d := 0; d < t.dim; d++ {
				binary.LittleEndian.PutUint64(data[off:], math.Float64bits(e.mbr.Hi[d]))
				off += 8
			}
		}
	}
	f.MarkDirty()
	return nil
}

// allocPage claims a page for a new node. It comes zeroed and stays
// resident for the writeNode that follows.
func (t *Tree) allocPage() (storage.PageID, error) {
	f, err := t.pool.NewPage()
	if err != nil {
		return storage.InvalidPage, err
	}
	defer f.Release()
	return f.ID(), nil
}
