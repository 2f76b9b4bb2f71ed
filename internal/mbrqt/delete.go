package mbrqt

import (
	"allnn/internal/geom"
	"allnn/internal/index"
)

// Delete removes the point with the given id and coordinates, returning
// false if no such object is indexed. Leaves and internal nodes that
// become empty are removed from their parents. (Single-child internal
// nodes are deliberately kept: a PR quadtree node's cell is implied by
// its depth along the path, so collapsing levels would break the
// quadrant arithmetic of later descents.)
func (t *Tree) Delete(id index.ObjectID, pt geom.Point) (bool, error) {
	if t.root == invalidRef || len(pt) != t.dim || !t.space.Contains(pt) {
		return false, nil
	}
	res, err := t.deleteAt(t.root, t.space, id, pt)
	if err != nil {
		return false, err
	}
	if !res.found {
		return false, nil
	}
	t.size--
	if res.removed {
		t.root = invalidRef
		t.height = 0
		t.bounds = geom.EmptyRect(t.dim)
		return true, nil
	}
	t.root = res.ref
	t.bounds = res.mbr
	return true, nil
}

type qtDeleteResult struct {
	found bool
	// removed reports the node became empty and was freed.
	removed bool
	// ref is the node's (possibly relocated) ref when it survives.
	ref   nodeRef
	mbr   geom.Rect
	count uint32
}

func (t *Tree) deleteAt(ref nodeRef, cell geom.Rect, id index.ObjectID, pt geom.Point) (qtDeleteResult, error) {
	n, err := t.readNode(ref)
	if err != nil {
		return qtDeleteResult{}, err
	}
	if n.leaf {
		at := -1
		for i := range n.objects {
			if n.objects[i].id == id && n.objects[i].pt.Equal(pt) {
				at = i
				break
			}
		}
		if at == -1 {
			return qtDeleteResult{found: false}, nil
		}
		n.objects = append(n.objects[:at], n.objects[at+1:]...)
		if len(n.objects) == 0 {
			if err := t.freeNode(ref); err != nil {
				return qtDeleteResult{}, err
			}
			return qtDeleteResult{found: true, removed: true}, nil
		}
		newRef, err := t.updateNode(ref, n)
		if err != nil {
			return qtDeleteResult{}, err
		}
		return qtDeleteResult{found: true, ref: newRef, mbr: n.mbr(t.dim), count: n.count()}, nil
	}

	q := quadOf(pt, cell) & halved(n.mask, t.dim)
	for i := range n.children {
		c := &n.children[i]
		if c.quad != q {
			continue
		}
		res, err := t.deleteAt(c.ref, childCell(cell, q, n.mask), id, pt)
		if err != nil {
			return qtDeleteResult{}, err
		}
		if !res.found {
			return qtDeleteResult{found: false}, nil
		}
		if res.removed {
			n.children = append(n.children[:i], n.children[i+1:]...)
		} else {
			c.ref = res.ref
			c.count = res.count
			c.mbr = res.mbr
		}
		if len(n.children) == 0 {
			if err := t.freeNode(ref); err != nil {
				return qtDeleteResult{}, err
			}
			return qtDeleteResult{found: true, removed: true}, nil
		}
		newRef, err := t.updateNode(ref, n)
		if err != nil {
			return qtDeleteResult{}, err
		}
		return qtDeleteResult{found: true, ref: newRef, mbr: n.mbr(t.dim), count: n.count()}, nil
	}
	return qtDeleteResult{found: false}, nil
}
