package mbrqt

import (
	"encoding/binary"
	"fmt"

	"allnn/internal/geom"
	"allnn/internal/storage"
)

// CheckIntegrity validates the structural invariants of the tree and
// returns a descriptive error on the first violation:
//
//  1. every point lies inside the cell of its leaf;
//  2. each child slot's quadrant code has bits only in its node's split
//     mask and matches the child's cell;
//  3. each slot's MBR is exactly the MBR of the data below it;
//  4. each slot's count is exactly the number of points below it;
//  5. leaves respect the bucket capacity unless at max depth;
//  6. the tree's size equals the total number of stored points.
func (t *Tree) CheckIntegrity() error {
	if t.root == invalidRef {
		if t.size != 0 {
			return fmt.Errorf("mbrqt: empty root but size %d", t.size)
		}
		return nil
	}
	count, mbr, err := t.checkNode(t.root, t.space, 1)
	if err != nil {
		return err
	}
	if int(count) != t.size {
		return fmt.Errorf("mbrqt: tree size %d but %d points found", t.size, count)
	}
	if t.size > 0 && !mbr.Equal(t.bounds) {
		return fmt.Errorf("mbrqt: tree bounds %v but data MBR %v", t.bounds, mbr)
	}
	return nil
}

func (t *Tree) checkNode(ref nodeRef, cell geom.Rect, depth int) (uint32, geom.Rect, error) {
	n, err := t.readNode(ref)
	if err != nil {
		return 0, geom.Rect{}, err
	}
	mbr := geom.EmptyRect(t.dim)
	if n.leaf {
		if len(n.objects) > t.cfg.BucketCapacity && depth < t.cfg.MaxDepth {
			return 0, geom.Rect{}, fmt.Errorf(
				"mbrqt: leaf %d holds %d > capacity %d at depth %d", ref, len(n.objects), t.cfg.BucketCapacity, depth)
		}
		for i := range n.objects {
			pt := n.objects[i].pt
			if !cell.Contains(pt) {
				return 0, geom.Rect{}, fmt.Errorf("mbrqt: leaf %d point %v outside cell %v", ref, pt, cell)
			}
			mbr.ExpandPoint(pt)
		}
		return uint32(len(n.objects)), mbr, nil
	}
	if len(n.children) == 0 {
		return 0, geom.Rect{}, fmt.Errorf("mbrqt: internal node %d has no children", ref)
	}
	var total uint32
	seen := make(map[uint32]bool, len(n.children))
	for i := range n.children {
		c := &n.children[i]
		if seen[c.quad] {
			return 0, geom.Rect{}, fmt.Errorf("mbrqt: node %d has duplicate quadrant %b", ref, c.quad)
		}
		seen[c.quad] = true
		if c.quad&^halved(n.mask, t.dim) != 0 {
			return 0, geom.Rect{}, fmt.Errorf("mbrqt: node %d slot %d quadrant %b outside split mask %b", ref, i, c.quad, n.mask)
		}
		sub := childCell(cell, c.quad, n.mask)
		cnt, childMBR, err := t.checkNode(c.ref, sub, depth+1)
		if err != nil {
			return 0, geom.Rect{}, err
		}
		if cnt != c.count {
			return 0, geom.Rect{}, fmt.Errorf(
				"mbrqt: node %d slot %d count %d but subtree has %d points", ref, i, c.count, cnt)
		}
		if !childMBR.Equal(c.mbr) {
			return 0, geom.Rect{}, fmt.Errorf(
				"mbrqt: node %d slot %d MBR %v but subtree MBR %v", ref, i, c.mbr, childMBR)
		}
		if !sub.ContainsRect(childMBR) {
			return 0, geom.Rect{}, fmt.Errorf(
				"mbrqt: node %d slot %d subtree MBR %v escapes its cell %v", ref, i, childMBR, sub)
		}
		total += cnt
		mbr.ExpandRect(childMBR)
	}
	return total, mbr, nil
}

// RebuildFree runs when an index is opened: one walk from the root counts
// the records the tree holds on each page, and the record store takes
// every other page for its free list (see recordStore.adopt).
func (t *Tree) RebuildFree() error {
	live := make(map[storage.PageID]int)
	var stack []nodeRef
	if t.root != invalidRef {
		stack = append(stack, t.root)
	}
	stride := internalEntrySize(t.dim)
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		err := t.walkRecords(ref, func(rec nodeRef, v recordView) error {
			live[rec.page()]++
			for i := 0; !v.leaf && i < v.num; i++ {
				stack = append(stack, nodeRef(binary.LittleEndian.Uint32(v.body[i*stride:])))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return t.rs.adopt(live, t.meta)
}

// StatsReport summarises the physical shape of the tree (for debugging
// and the experiments' index build reports).
type StatsReport struct {
	Nodes, Leaves, Internal int
	Pages                   int // distinct pages holding node records
	MaxDepth                int
	Points                  int
}

// Stats walks the tree and collects a StatsReport.
func (t *Tree) Stats() (StatsReport, error) {
	var r StatsReport
	if t.root == invalidRef {
		return r, nil
	}
	pages := make(map[uint32]bool)
	if err := t.statsAt(t.root, 1, &r, pages); err != nil {
		return r, err
	}
	r.Pages = len(pages)
	return r, nil
}

func (t *Tree) statsAt(ref nodeRef, depth int, r *StatsReport, pages map[uint32]bool) error {
	refs, err := t.chainRefs(ref)
	if err != nil {
		return err
	}
	for _, cr := range refs {
		pages[uint32(cr.page())] = true
	}
	n, err := t.readNode(ref)
	if err != nil {
		return err
	}
	r.Nodes++
	if depth > r.MaxDepth {
		r.MaxDepth = depth
	}
	if n.leaf {
		r.Leaves++
		r.Points += len(n.objects)
		return nil
	}
	r.Internal++
	for i := range n.children {
		if err := t.statsAt(n.children[i].ref, depth+1, r, pages); err != nil {
			return err
		}
	}
	return nil
}
