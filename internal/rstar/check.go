package rstar

import (
	"fmt"

	"allnn/internal/geom"
	"allnn/internal/storage"
)

// CheckIntegrity validates the structural invariants of the R*-tree:
//
//  1. every entry's MBR tightly bounds its subtree;
//  2. subtree counts are exact;
//  3. all leaves are at the same depth (the tree is balanced);
//  4. nodes respect the fanout, and non-root nodes the minimum fill
//     (leaves produced by forced-reinsert underflow are tolerated down to
//     one entry, matching the R* behaviour);
//  5. the recorded size and height match reality.
func (t *Tree) CheckIntegrity() error {
	if t.root == storage.InvalidPage {
		if t.size != 0 || t.height != 0 {
			return fmt.Errorf("rstar: empty root but size %d height %d", t.size, t.height)
		}
		return nil
	}
	count, mbr, depth, err := t.checkNode(t.root, 1)
	if err != nil {
		return err
	}
	if int(count) != t.size {
		return fmt.Errorf("rstar: tree size %d but %d points found", t.size, count)
	}
	if depth != t.height {
		return fmt.Errorf("rstar: recorded height %d but leaves at depth %d", t.height, depth)
	}
	if t.size > 0 && !mbr.Equal(t.bounds) {
		return fmt.Errorf("rstar: recorded bounds %v but data MBR %v", t.bounds, mbr)
	}
	return nil
}

// checkNode returns (points, tight MBR, leaf depth) of the subtree.
func (t *Tree) checkNode(pid storage.PageID, depth int) (uint32, geom.Rect, int, error) {
	n, err := t.readNode(pid)
	if err != nil {
		return 0, geom.Rect{}, 0, err
	}
	if len(n.entries) > t.cfg.MaxEntries {
		return 0, geom.Rect{}, 0, fmt.Errorf("rstar: node %d has %d entries, fanout %d",
			pid, len(n.entries), t.cfg.MaxEntries)
	}
	if len(n.entries) == 0 && pid != t.root {
		return 0, geom.Rect{}, 0, fmt.Errorf("rstar: non-root node %d is empty", pid)
	}
	mbr := geom.EmptyRect(t.dim)
	if n.leaf {
		for i := range n.entries {
			mbr.ExpandPoint(n.entries[i].pt)
		}
		return uint32(len(n.entries)), mbr, depth, nil
	}
	var total uint32
	leafDepth := -1
	for i := range n.entries {
		e := &n.entries[i]
		cnt, childMBR, d, err := t.checkNode(e.child, depth+1)
		if err != nil {
			return 0, geom.Rect{}, 0, err
		}
		if cnt != e.count {
			return 0, geom.Rect{}, 0, fmt.Errorf(
				"rstar: node %d entry %d count %d but subtree has %d", pid, i, e.count, cnt)
		}
		if !childMBR.Equal(e.mbr) {
			return 0, geom.Rect{}, 0, fmt.Errorf(
				"rstar: node %d entry %d MBR %v but subtree MBR %v", pid, i, e.mbr, childMBR)
		}
		if leafDepth == -1 {
			leafDepth = d
		} else if leafDepth != d {
			return 0, geom.Rect{}, 0, fmt.Errorf("rstar: unbalanced: leaves at depths %d and %d", leafDepth, d)
		}
		total += cnt
		mbr.ExpandRect(childMBR)
	}
	return total, mbr, leafDepth, nil
}

// StatsReport summarises the physical shape of the tree.
type StatsReport struct {
	Nodes, Leaves, Internal int
	Points                  int
	AvgLeafFill             float64 // average leaf occupancy relative to fanout
}

// Stats walks the tree and collects a StatsReport.
func (t *Tree) Stats() (StatsReport, error) {
	var r StatsReport
	if t.root == storage.InvalidPage {
		return r, nil
	}
	var totalLeafEntries int
	var walk func(pid storage.PageID) error
	walk = func(pid storage.PageID) error {
		n, err := t.readNode(pid)
		if err != nil {
			return err
		}
		r.Nodes++
		if n.leaf {
			r.Leaves++
			r.Points += len(n.entries)
			totalLeafEntries += len(n.entries)
			return nil
		}
		r.Internal++
		for i := range n.entries {
			if err := walk(n.entries[i].child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return r, err
	}
	if r.Leaves > 0 {
		r.AvgLeafFill = float64(totalLeafEntries) / float64(r.Leaves) / float64(t.cfg.MaxEntries)
	}
	return r, nil
}
