// Package indextest holds what the tests of internal/index and of the two
// tree packages share: the reference decoding of a Block, and a harness
// that runs the point-query scan kernels over one node.
package indextest

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// Entries decodes b slot by slot into the entries Expand returns for the
// same record. It indexes b.Data by the Block's own N, Stride and offsets,
// so a Block that misdescribes its bytes panics here.
func Entries(b index.Block) []index.Entry {
	out := make([]index.Entry, b.N)
	coords := func(p []byte) geom.Point {
		pt := make(geom.Point, b.Dim)
		for d := range pt {
			pt[d] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*d:]))
		}
		return pt
	}
	for i := range out {
		slot := b.Data[i*b.Stride : (i+1)*b.Stride]
		if b.Leaf {
			pt := coords(slot[8:])
			out[i] = index.Entry{Kind: index.ObjectEntry, MBR: geom.PointRect(pt), Count: 1,
				Object: index.ObjectID(binary.LittleEndian.Uint64(slot)), Point: pt}
			continue
		}
		out[i] = index.Entry{
			Kind:  index.NodeEntry,
			MBR:   geom.Rect{Lo: coords(slot[b.BoxOff:]), Hi: coords(slot[b.BoxOff+8*b.Dim:])},
			Child: storage.PageID(binary.LittleEndian.Uint32(slot)),
			Count: binary.LittleEndian.Uint32(slot[b.CountOff:]),
		}
	}
	return out
}

// errBeyond stops a kernel run at the edge of the node under test.
var errBeyond = errors.New("indextest: visit beyond the node under test")

// oneNode is a tree whose root is a single node of another tree and which
// refuses every visit after the first, so that a search over it runs the
// scan kernels on that node's records and nothing else (a damaged node may
// name itself as its child).
type oneNode struct {
	index.Tree
	child   storage.PageID
	visited bool
}

func (o *oneNode) Root() (index.Entry, error) {
	lo, hi := make(geom.Point, o.Dim()), make(geom.Point, o.Dim())
	for d := range lo {
		lo[d], hi[d] = math.Inf(-1), math.Inf(1)
	}
	return index.Entry{Kind: index.NodeEntry, MBR: geom.Rect{Lo: lo, Hi: hi}, Child: o.child, Count: math.MaxInt32}, nil
}

func (o *oneNode) Visit(child storage.PageID, fn func(index.Block) error) error {
	if o.visited {
		return errBeyond
	}
	o.visited = true
	return o.Tree.Visit(child, fn)
}

// ScanNode runs the kNN kernels and the range kernels over the node of
// tree stored at child, whatever its bytes are: every slot of every record
// that passes the tree's validation is read, so a kernel reading outside a
// Block's Data panics here. The searches may only end cleanly, at the edge
// of the node, or on the tree's own corruption error.
func ScanNode(t testing.TB, tree index.Tree, child storage.PageID) {
	t.Helper()
	q := make(geom.Point, tree.Dim())
	one := &oneNode{Tree: tree, child: child}
	root, _ := one.Root()
	check := func(verb string, err error) {
		if err != nil && !errors.Is(err, errBeyond) && !storage.IsCorrupt(err) {
			t.Fatalf("%s over node %d: %v", verb, child, err)
		}
	}
	_, err := index.NearestNeighbors(one, q, 3)
	check("kNN", err)
	one.visited = false
	_, err = index.RangeSearch(one, root.MBR)
	check("range search", err)
}
