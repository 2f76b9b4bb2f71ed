// Package mbrqt implements the paper's MBRQT index: a disk-resident
// bucket PR quadtree whose internal entries are enhanced with explicit
// minimum bounding rectangles (Section 3.2).
//
// A plain PR quadtree decomposes space regularly, so sibling cells border
// each other and pairwise MINMINDIST is zero, which cripples
// distance-based pruning. Storing the exact MBR of the data below each
// child (at some storage cost) restores tight bounds while keeping the
// non-overlapping regular decomposition that makes the NXNDIST pruning
// metric effective.
//
// The paper's split halves every dimension of a cell at once, which in
// 10-D scatters an overflowing bucket over up to 1 024 mostly near-empty
// quadrants. Here a split halves only the dimensions it needs, as a PR
// k-d tree splits a subset (loader.splitMask), and the node keeps that
// split mask for the writes that descend it later. In 2-D, and on data
// of even spread, every split is still the paper's, byte for byte.
//
// On disk, nodes are variable-size records packed many-per-page into the
// slotted pages of records.go; a node that outgrows a single page chains
// several records. The tree lives inside a shared page store, so several
// indexes and data files can compete for the same buffer pool exactly as
// they do inside SHORE in the paper's experiments.
package mbrqt

import (
	"encoding/binary"
	"fmt"
	"math"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// MaxDim is the largest supported dimensionality: quadrant codes are bit
// masks with one bit per dimension stored in a uint32.
const MaxDim = 30

const (
	nodeTypeLeaf     = 1
	nodeTypeInternal = 2

	// Node record layout: 1 byte type, 1 byte flag, 2 bytes entry count,
	// 4 bytes continuation ref, then the entries. Flag 0 is every record
	// of a node whose split halved every dimension, as well as every
	// leaf and chain continuation; flag 1 marks the head record of an
	// internal node whose split halved only some dimensions, and a
	// uint32 split mask follows its header, before the entries.
	recNodeHeader = 8
	recMaskLen    = 4
	recFlagMasked = 1
)

// childSlot is one entry of an internal node: a quadrant of the node's
// cell that holds data, with the exact MBR and point count of the data
// below it.
type childSlot struct {
	quad  uint32 // bit d set: child is the upper half of dimension d
	ref   nodeRef
	count uint32
	mbr   geom.Rect
}

// object is one point in a leaf bucket.
type object struct {
	id index.ObjectID
	pt geom.Point
}

// node is the in-memory form of a (de)serialised node chain.
type node struct {
	leaf bool
	// mask has bit d set when the node's split halved dimension d; 0
	// means it halved every dimension, the paper's split. A child's
	// quadrant code has bits only in the mask.
	mask     uint32
	children []childSlot // internal nodes
	objects  []object    // leaves
}

// halved returns the dimensions a split of mask halves.
func halved(mask uint32, dim int) uint32 {
	if mask == 0 {
		return 1<<uint(dim) - 1
	}
	return mask
}

// count returns the number of points under the node.
func (n *node) count() uint32 {
	if n.leaf {
		return uint32(len(n.objects))
	}
	var c uint32
	for i := range n.children {
		c += n.children[i].count
	}
	return c
}

// mbr returns the exact MBR of the data under the node.
func (n *node) mbr(dim int) geom.Rect {
	r := geom.EmptyRect(dim)
	if n.leaf {
		for i := range n.objects {
			r.ExpandPoint(n.objects[i].pt)
		}
	} else {
		for i := range n.children {
			r.ExpandRect(n.children[i].mbr)
		}
	}
	return r
}

// Entry sizes on disk.
func internalEntrySize(dim int) int { return 4 + 4 + 4 + 16*dim }
func leafEntrySize(dim int) int     { return 8 + 8*dim }

// entriesPerRecord returns how many entries of the given size fit one
// maximal record.
func entriesPerRecord(entrySize int) int {
	return (maxRecordSize - recNodeHeader) / entrySize
}

// recordView is one node record parsed in place: parseRecord has done
// every structural check, so the entries decode straight from body (which
// aliases the page) with no further validation. readNode and Visit are
// collectors over it.
type recordView struct {
	leaf bool
	mask uint32 // the node's split mask, on its head record; 0: every dimension
	num  int
	next nodeRef // chain continuation
	body []byte  // num entries of the record's type
}

// parseRecord validates one record structurally before touching a byte
// past the header: rec may be arbitrary bytes (logically damaged but
// checksum-valid pages, fuzzer input).
// first selects whether the record establishes the node type or must
// continue a chain of the given type. Violations wrap
// storage.ErrCorruptPage.
func parseRecord(rec []byte, dim int, first, leaf bool) (recordView, error) {
	if len(rec) < recNodeHeader {
		return recordView{}, fmt.Errorf("mbrqt: node record truncated to %d bytes: %w", len(rec), storage.ErrCorruptPage)
	}
	typ := rec[0]
	if typ != nodeTypeLeaf && typ != nodeTypeInternal {
		return recordView{}, fmt.Errorf("mbrqt: invalid node type %d: %w", typ, storage.ErrCorruptPage)
	}
	v := recordView{
		leaf: typ == nodeTypeLeaf,
		num:  int(binary.LittleEndian.Uint16(rec[2:])),
		next: nodeRef(binary.LittleEndian.Uint32(rec[4:])),
	}
	if !first && v.leaf != leaf {
		return recordView{}, fmt.Errorf("mbrqt: node chain mixes record types: %w", storage.ErrCorruptPage)
	}
	hdr := recNodeHeader
	switch flag := rec[1]; {
	case flag == 0:
	case flag == recFlagMasked && first && !v.leaf:
		if len(rec) < recNodeHeader+recMaskLen {
			return recordView{}, fmt.Errorf("mbrqt: masked node record truncated to %d bytes: %w", len(rec), storage.ErrCorruptPage)
		}
		v.mask = binary.LittleEndian.Uint32(rec[recNodeHeader:])
		if all := uint32(1)<<uint(dim) - 1; v.mask == 0 || v.mask&^all != 0 || v.mask == all {
			return recordView{}, fmt.Errorf("mbrqt: split mask %b invalid in %d dimensions: %w", v.mask, dim, storage.ErrCorruptPage)
		}
		hdr += recMaskLen
	default:
		// Only an internal node's head record carries a split mask.
		return recordView{}, fmt.Errorf("mbrqt: record flag %d invalid here: %w", flag, storage.ErrCorruptPage)
	}
	v.body = rec[hdr:]
	entrySize := internalEntrySize(dim)
	if v.leaf {
		entrySize = leafEntrySize(dim)
	}
	if want := hdr + v.num*entrySize; want != len(rec) {
		return recordView{}, fmt.Errorf("mbrqt: node record of %d bytes claims %d entries (want %d bytes): %w",
			len(rec), v.num, want, storage.ErrCorruptPage)
	}
	return v, nil
}

// block describes the record's entries, to a Tree.Visit visitor and to
// collect. An internal slot is child ref, quadrant code, count, MBR.
func (v recordView) block(dim int) index.Block {
	if v.leaf {
		return index.Block{Leaf: true, N: v.num, Dim: dim, Stride: leafEntrySize(dim), Data: v.body}
	}
	return index.Block{N: v.num, Dim: dim, Stride: internalEntrySize(dim), CountOff: 8, BoxOff: 12, Data: v.body}
}

// collect appends a parsed record's entries to n.
func (n *node) collect(v recordView, dim int) {
	n.leaf = v.leaf
	if v.mask != 0 {
		n.mask = v.mask
	}
	b := v.block(dim)
	if v.leaf {
		// One flat coordinate array per record keeps deserialisation at
		// two allocations instead of one per point.
		coords := make([]float64, v.num*dim)
		n.objects = append(n.objects, make([]object, v.num)...)
		base := len(n.objects) - v.num
		for i := 0; i < v.num; i++ {
			o := &n.objects[base+i]
			o.pt = coords[i*dim : (i+1)*dim]
			o.id = b.Object(i, o.pt)
		}
		return
	}
	coords := make([]float64, v.num*2*dim)
	n.children = append(n.children, make([]childSlot, v.num)...)
	base := len(n.children) - v.num
	for i := 0; i < v.num; i++ {
		c := &n.children[base+i]
		c.mbr = geom.Rect{Lo: coords[i*2*dim : i*2*dim+dim], Hi: coords[i*2*dim+dim : (i+1)*2*dim]}
		ref, count := b.Child(i, c.mbr.Lo, c.mbr.Hi)
		c.ref, c.count = nodeRef(ref), count
		c.quad = binary.LittleEndian.Uint32(b.Data[i*b.Stride+4:])
	}
}

// decodeRecord appends one record's entries to n (see parseRecord for
// first and the validation). The returned ref is the chain continuation.
func decodeRecord(n *node, rec []byte, dim int, first bool) (nodeRef, error) {
	v, err := parseRecord(rec, dim, first, n.leaf)
	if err != nil {
		return invalidRef, err
	}
	n.collect(v, dim)
	return v.next, nil
}

// walkRecords reads the node chain starting at ref in place: fn sees each
// record as a view into its pinned page, valid only until it returns.
// One pool.Get per record, in chain order; no page stays pinned once
// walkRecords returns, whether fn stopped it or a read failed.
func (t *Tree) walkRecords(ref nodeRef, fn func(ref nodeRef, v recordView) error) error {
	leaf := false
	for steps := 0; ref != invalidRef; steps++ {
		// Almost every node is a single record, so the store is asked
		// for its size only once a chain actually continues. A
		// continuation ref must name an allocated page, and a chain
		// cannot hold more records than the store has slots: exceeding
		// that proves a ref cycle planted by corruption, which record
		// reads alone would follow forever.
		if steps > 0 {
			pages := t.pool.Store().NumPages()
			if int(ref.page()) >= pages {
				return fmt.Errorf("mbrqt: node chain continues at %v, beyond the store's %d pages: %w", ref, pages, storage.ErrCorruptPage)
			}
			if steps >= pages*maxSlots {
				return fmt.Errorf("mbrqt: node chain exceeds %d records (ref cycle): %w", steps, storage.ErrCorruptPage)
			}
		}
		next, err := t.walkRecord(ref, steps == 0, &leaf, fn)
		if err != nil {
			return err
		}
		ref = next
	}
	return nil
}

// walkRecord is one step of walkRecords: pin, parse, hand to fn, unpin.
func (t *Tree) walkRecord(ref nodeRef, first bool, leaf *bool, fn func(ref nodeRef, v recordView) error) (nodeRef, error) {
	f, err := t.pool.Get(ref.page())
	if err != nil {
		return invalidRef, fmt.Errorf("mbrqt: read record %v: %w", ref, err)
	}
	defer f.Release()
	rec, err := recordFromPage(f.Data(), ref.slot())
	if err != nil {
		return invalidRef, fmt.Errorf("page %d: %w", ref.page(), err)
	}
	v, err := parseRecord(rec, t.dim, first, *leaf)
	if err != nil {
		return invalidRef, fmt.Errorf("record %v: %w", ref, err)
	}
	*leaf = v.leaf
	return v.next, fn(ref, v)
}

// readNode loads the node chain starting at ref into memory.
func (t *Tree) readNode(ref nodeRef) (*node, error) {
	n := &node{}
	err := t.walkRecords(ref, func(_ nodeRef, v recordView) error {
		n.collect(v, t.dim)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// serializeNode renders n as a list of record byte slices, each within
// the single-page record limit, with the continuation refs left zeroed
// (the writers fill them in).
func (t *Tree) serializeNode(n *node) [][]byte {
	var entrySize, total int
	var typ byte
	if n.leaf {
		entrySize = leafEntrySize(t.dim)
		total = len(n.objects)
		typ = nodeTypeLeaf
	} else {
		entrySize = internalEntrySize(t.dim)
		total = len(n.children)
		typ = nodeTypeInternal
	}
	var segments [][]byte
	written := 0
	for {
		hdr := recNodeHeader
		if written == 0 && n.mask != 0 {
			hdr += recMaskLen
		}
		take := min(total-written, (maxRecordSize-hdr)/entrySize)
		rec := make([]byte, hdr+take*entrySize)
		rec[0] = typ
		binary.LittleEndian.PutUint16(rec[2:], uint16(take))
		binary.LittleEndian.PutUint32(rec[4:], uint32(invalidRef))
		if hdr > recNodeHeader {
			rec[1] = recFlagMasked
			binary.LittleEndian.PutUint32(rec[recNodeHeader:], n.mask)
		}
		off := hdr
		if n.leaf {
			for i := written; i < written+take; i++ {
				o := &n.objects[i]
				binary.LittleEndian.PutUint64(rec[off:], uint64(o.id))
				off += 8
				for d := 0; d < t.dim; d++ {
					binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(o.pt[d]))
					off += 8
				}
			}
		} else {
			for i := written; i < written+take; i++ {
				c := &n.children[i]
				binary.LittleEndian.PutUint32(rec[off:], uint32(c.ref))
				binary.LittleEndian.PutUint32(rec[off+4:], c.quad)
				binary.LittleEndian.PutUint32(rec[off+8:], c.count)
				off += 12
				for d := 0; d < t.dim; d++ {
					binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(c.mbr.Lo[d]))
					off += 8
				}
				for d := 0; d < t.dim; d++ {
					binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(c.mbr.Hi[d]))
					off += 8
				}
			}
		}
		segments = append(segments, rec)
		written += take
		if written >= total {
			return segments
		}
	}
}

// writeNewNode allocates a fresh chain for n on the given fill list and
// returns its head ref. Segments are allocated tail-first so each can
// embed its successor.
func (t *Tree) writeNewNode(n *node, fill *[]storage.PageID) (nodeRef, error) {
	segments := t.serializeNode(n)
	next := invalidRef
	for i := len(segments) - 1; i >= 0; i-- {
		binary.LittleEndian.PutUint32(segments[i][4:], uint32(next))
		ref, err := t.rs.allocOn(fill, segments[i])
		if err != nil {
			return invalidRef, err
		}
		next = ref
	}
	return next, nil
}

// updateNode rewrites the node at ref, returning its (possibly new) head
// ref. Single-record nodes update in place when they fit; chained nodes
// (rare: very wide internal nodes, duplicate-overflow leaves) are
// rewritten wholesale.
func (t *Tree) updateNode(ref nodeRef, n *node) (nodeRef, error) {
	segments := t.serializeNode(n)
	oldChain, err := t.chainRefs(ref)
	if err != nil {
		return invalidRef, err
	}
	// The decoded form of this node is stale whether or not the head ref
	// survives the rewrite.
	t.cache.Load().Invalidate(storage.PageID(ref))
	if len(segments) == 1 && len(oldChain) == 1 {
		return t.rs.update(ref, segments[0])
	}
	if err := t.freeNode(ref); err != nil {
		return invalidRef, err
	}
	return t.writeNewNode(n, &t.rs.fillPages)
}

// chainRefs returns the record refs of the node chain starting at ref.
func (t *Tree) chainRefs(ref nodeRef) ([]nodeRef, error) {
	var refs []nodeRef
	err := t.walkRecords(ref, func(r nodeRef, _ recordView) error {
		refs = append(refs, r)
		return nil
	})
	return refs, err
}

// freeNode releases every record of the node chain at ref. Every ref in
// the chain is dropped from the node cache: freed refs can be recycled by
// later allocations, so a stale decode must not outlive the record.
func (t *Tree) freeNode(ref nodeRef) error {
	refs, err := t.chainRefs(ref)
	if err != nil {
		return err
	}
	for _, r := range refs {
		t.cache.Load().Invalidate(storage.PageID(r))
		if err := t.rs.free(r); err != nil {
			return err
		}
	}
	return nil
}
