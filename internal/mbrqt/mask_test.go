package mbrqt

import (
	"context"
	"encoding/binary"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"allnn/internal/bruteforce"
	"allnn/internal/core"
	"allnn/internal/datagen"
	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// maskedNodes counts the internal nodes under ref whose split halved only
// some dimensions.
func maskedNodes(t *testing.T, tree *Tree, ref nodeRef) int {
	t.Helper()
	n, err := tree.readNode(ref)
	if err != nil {
		t.Fatal(err)
	}
	if n.leaf {
		return 0
	}
	c := 0
	if n.mask != 0 {
		c = 1
	}
	for i := range n.children {
		c += maskedNodes(t, tree, n.children[i].ref)
	}
	return c
}

// TestSplitMaskRule: the split halves the ⌈log₂(n / (capacity/2))⌉
// separating dimensions of widest spread, every separating dimension at
// least half as wide as the widest and every dimension that does not
// separate; a choice of every dimension, or no separating dimension, is
// the paper's split (mask 0).
func TestSplitMaskRule(t *testing.T) {
	tree := &Tree{dim: 4, cfg: Config{BucketCapacity: 8}}
	l := &loader{t: tree, dim: 4, mid: geom.Point{50, 50, 50, 50}}
	rect := func(lo, hi geom.Point) geom.Rect { return geom.Rect{Lo: lo, Hi: hi} }
	for _, c := range []struct {
		name string
		n    int
		mbr  geom.Rect
		want uint32
	}{
		// n = 9 over half-buckets of 4: m = 2. Spreads 90, 60, 20, 10.
		{"two widest", 9, rect(geom.Point{5, 20, 40, 45}, geom.Point{95, 80, 60, 55}), 0b0011},
		// The same spreads with m = 3 (n = 17): the third is 20.
		{"three widest", 17, rect(geom.Point{5, 20, 40, 45}, geom.Point{95, 80, 60, 55}), 0b0111},
		// Spreads 90, 30, 50, 46: m = 2 takes 90 and 50, and 46 is half of 90.
		{"half the widest", 9, rect(geom.Point{5, 35, 25, 27}, geom.Point{95, 65, 75, 73}), 0b1101},
		// Dimension 0 is the widest but does not separate: it is halved
		// besides the two widest that do.
		{"one does not separate", 9, rect(geom.Point{51, 20, 40, 45}, geom.Point{99, 80, 60, 55}), 0b0111},
		// Equal spreads: ties go to the lower dimension, and every one is
		// half the widest, so all four are halved.
		{"every dimension", 9, rect(geom.Point{40, 40, 40, 40}, geom.Point{60, 60, 60, 60}), 0},
		{"none separates", 9, rect(geom.Point{51, 51, 51, 51}, geom.Point{99, 99, 99, 99}), 0},
	} {
		if got := l.splitMask(c.n, c.mbr); got != c.want {
			t.Errorf("%s: mask %04b, want %04b", c.name, got, c.want)
		}
	}
}

// TestBulkLoadMasksOnlyInHighD: an FC-like 10-D load halves only some
// dimensions at some nodes; 2-D loads, uniform or in tight clusters whose
// nodes often straddle one midpoint alone, and a uniform 10-D load, whose
// spreads are even, never do.
func TestBulkLoadMasksOnlyInHighD(t *testing.T) {
	for _, c := range []struct {
		name   string
		pts    []geom.Point
		masked bool
	}{
		{"fc10d_5k", datagen.FCSurrogate(1, 5_000), true},
		{"tac2d_20k", datagen.TACSurrogate(1, 20_000), false},
		{"clustered2d_50k", datagen.GaussianClusters(1, 50_000, datagen.ScaledBounds(2, 1000), 40, 0.02), false},
		{"uniform10d_2k", datagen.Uniform(10, 2_000, datagen.UnitBounds(10)), false},
	} {
		tree, err := BulkLoad(newPool(1024), c.pts, nil, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := maskedNodes(t, tree, tree.root); (got > 0) != c.masked {
			t.Errorf("%s: %d masked nodes", c.name, got)
		}
	}
}

// TestParseRecordRefusesBadMask: the masked record form decodes only as
// the head record of an internal node with a mask of some, but not all,
// of the tree's dimensions; every other form is ErrCorruptPage.
func TestParseRecordRefusesBadMask(t *testing.T) {
	const dim = 3
	leaf, internal, masked := seedRecords(dim)
	v, err := parseRecord(masked, dim, true, false)
	if err != nil || v.mask != 0b010 || v.num != 1 {
		t.Fatalf("valid masked record: mask %b, %d entries, err %v", v.mask, v.num, err)
	}
	withMask := func(m uint32) []byte {
		rec := slices.Clone(masked)
		binary.LittleEndian.PutUint32(rec[recNodeHeader:], m)
		return rec
	}
	flagged := func(rec []byte, flag byte) []byte {
		rec = slices.Clone(rec)
		rec[1] = flag
		return rec
	}
	for _, c := range []struct {
		name  string
		rec   []byte
		first bool
	}{
		{"flag 2", flagged(masked, 2), true},
		{"flag 255 on a leaf", flagged(leaf, 255), true},
		{"flag 1 on a leaf", flagged(leaf, recFlagMasked), true},
		{"flag 1 on a continuation", masked, false},
		{"flag 1 without a mask", flagged(internal, recFlagMasked), true},
		{"mask 0", withMask(0), true},
		{"mask of every dimension", withMask(0b111), true},
		{"mask bit past dim", withMask(0b1010), true},
		{"truncated mask", masked[:recNodeHeader+2], true},
	} {
		_, err := parseRecord(c.rec, dim, c.first, false)
		if !storage.IsCorrupt(err) {
			t.Errorf("%s: err %v, want ErrCorruptPage", c.name, err)
		}
	}
}

// TestCheckIntegrityHoldsTheMask: a child whose quadrant has a bit outside
// its node's mask, or a mask that no longer holds a child's points in its
// cell, fails CheckIntegrity.
func TestCheckIntegrityHoldsTheMask(t *testing.T) {
	for _, c := range []struct {
		name, want string
		edit       func(n *node)
	}{
		{"quadrant outside the mask", "outside split mask", func(n *node) { n.children[0].quad |= ^n.mask & 0b111 }},
		{"every dimension halved", "outside cell", func(n *node) { n.mask = 0 }},
	} {
		// Dimension 0 is wide, 1 narrower, 2 narrowest: the root halves
		// dimensions 0 and 1 only (12 points over half-buckets of 4: m = 2).
		pts := make([]geom.Point, 12)
		for i := range pts {
			pts[i] = geom.Point{float64(i * 100), float64(i%7) * 60, float64(i%3) * 10}
		}
		tree, err := BulkLoad(newPool(64), pts, nil, Config{BucketCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		root, err := tree.readNode(tree.root)
		if err != nil {
			t.Fatal(err)
		}
		if root.mask != 0b011 {
			t.Fatalf("root mask %03b, want 011", root.mask)
		}
		c.edit(root)
		if tree.root, err = tree.updateNode(tree.root, root); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckIntegrity = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestMaskedWritePath drives a 10-D tree through the write path: an
// FC-like bulk load of 5 000 points, 2 000 inserts, whose leaf splits
// halve only some dimensions, and 1 000 deletes, then a reopen from the
// page file. After each step the tree passes CheckIntegrity, and its kNN
// probes and its self-join give bruteforce's distances.
func TestMaskedWritePath(t *testing.T) {
	all := datagen.FCSurrogate(1, 9_000)
	store, err := storage.NewFileStore(filepath.Join(t.TempDir(), "fc.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tree, err := BulkLoad(storage.NewBufferPool(store, 256), all[:5_000], nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[index.ObjectID]geom.Point)
	for i, p := range all[:5_000] {
		live[index.ObjectID(i)] = p
	}
	check := func(step string, tree *Tree) {
		t.Helper()
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		compareWithBruteForce(t, step, tree, live)
	}

	before := maskedNodes(t, tree, tree.root)
	inserted := 0
	for i := 5_000; i < len(all) && inserted < 2_000; i++ {
		if !tree.Space().Contains(all[i]) {
			continue
		}
		if err := tree.Insert(index.ObjectID(i), all[i]); err != nil {
			t.Fatal(err)
		}
		live[index.ObjectID(i)] = all[i]
		inserted++
	}
	if inserted < 2_000 {
		t.Fatalf("only %d points fell inside the space", inserted)
	}
	if after := maskedNodes(t, tree, tree.root); after <= before {
		t.Fatalf("inserts made no masked split: %d masked nodes before, %d after", before, after)
	}
	check("inserts", tree)

	deleted := 0
	for id := index.ObjectID(0); deleted < 1_000; id += 3 {
		p, ok := live[id]
		if !ok {
			continue
		}
		if ok, err := tree.Delete(id, p); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
		delete(live, id)
		deleted++
	}
	check("deletes", tree)

	if err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(storage.NewBufferPool(store, 256), tree.MetaPage())
	if err != nil {
		t.Fatal(err)
	}
	check("reopen", reopened)
}

// compareWithBruteForce holds a tree's 10-NN probes of 50 points and its
// k = 10 self-join to bruteforce's distances over the live points.
func compareWithBruteForce(t *testing.T, step string, tree *Tree, live map[index.ObjectID]geom.Point) {
	t.Helper()
	var ds bruteforce.Dataset
	for id := range live {
		ds.IDs = append(ds.IDs, id)
	}
	slices.Sort(ds.IDs)
	for _, id := range ds.IDs {
		ds.Points = append(ds.Points, live[id])
	}
	const k = 10
	want := bruteforce.AkNN(ds, ds, k, true)
	dists := func(ns []bruteforce.Neighbor) []float64 {
		out := make([]float64, len(ns))
		for i, n := range ns {
			out[i] = n.Dist
		}
		return out
	}
	row := make(map[index.ObjectID][]float64, len(want))
	for _, r := range want {
		row[r.Object] = dists(r.Neighbors)
	}
	rows := 0
	_, err := core.RunContext(context.Background(), tree, tree, core.Options{K: k, ExcludeSelf: true}, func(r core.Result) error {
		rows++
		got := make([]float64, len(r.Neighbors))
		for i, n := range r.Neighbors {
			got[i] = n.Dist
		}
		if !slices.Equal(got, row[index.ObjectID(r.ID)]) {
			t.Fatalf("%s: self-join row %d distances %v, bruteforce %v", step, r.ID, got, row[index.ObjectID(r.ID)])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(want) {
		t.Fatalf("%s: self-join emitted %d rows for %d points", step, rows, len(want))
	}
	probe := bruteforce.Dataset{IDs: []index.ObjectID{math.MaxUint32}}
	for i := 0; i < len(ds.Points); i += len(ds.Points) / 50 {
		probe.Points = append(probe.Points[:0], ds.Points[i])
		want := dists(bruteforce.AkNN(probe, ds, k, false)[0].Neighbors)
		got, err := index.NearestNeighbors(tree, ds.Points[i], k)
		if err != nil {
			t.Fatal(err)
		}
		gotD := make([]float64, len(got))
		for j, g := range got {
			gotD[j] = math.Sqrt(g.DistSq)
		}
		if !slices.Equal(gotD, want) {
			t.Fatalf("%s: 10-NN of point %d at %v, bruteforce %v", step, ds.IDs[i], gotD, want)
		}
	}
}
