package indextest

import (
	"maps"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// walk expands everything below s (filling the attached node cache) and
// returns its objects by id and the set of node refs it reaches.
func walk(t *testing.T, s index.Tree) (map[index.ObjectID]geom.Point, map[storage.PageID]bool) {
	t.Helper()
	objs, refs := map[index.ObjectID]geom.Point{}, map[storage.PageID]bool{}
	root, err := s.Root()
	if err != nil {
		t.Fatal(err)
	}
	for stack := []index.Entry{root}; len(stack) > 0 && root.Count > 0; {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.IsObject() {
			if _, dup := objs[e.Object]; dup {
				t.Fatalf("object %d reached twice", e.Object)
			}
			objs[e.Object] = e.Point
			continue
		}
		refs[e.Child] = true
		kids, err := s.Expand(&e)
		if err != nil {
			t.Fatalf("expand %d: %v", e.Child, err)
		}
		stack = append(stack, kids...)
	}
	if len(objs) != s.Len() {
		t.Fatalf("walk reached %d objects, Len says %d", len(objs), s.Len())
	}
	return objs, refs
}

// SnapshotIsolation is the copy-on-write conformance of a tree kind.
// It loads pts[:n] into the empty tree, then commits rounds batches that
// each delete the churn oldest points and insert the next churn of pts,
// releasing every batch one round late (as if a reader held the previous
// snapshot) and checkpointing every third round. It asserts that
//
//   - a snapshot reads exactly the state it froze while the writer moves
//     on, and the newest one reads the writer's;
//   - a ref is never handed out again before it was released and drained
//     and fenced, and an insert grows the store only once the free list
//     is empty (and pages do come back: the free list is used);
//   - a freed ref's node-cache entry survives until its release — old
//     readers re-populate it — and dies there.
func SnapshotIsolation(t *testing.T, tree index.Mutable, pts []geom.Point, n, churn, rounds int) {
	want := map[index.ObjectID]geom.Point{}
	insert := func(i int) {
		want[index.ObjectID(i)] = pts[i]
		if err := tree.Insert(index.ObjectID(i), pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		insert(i)
	}
	cache := index.NewNodeCache(0)
	tree.SetNodeCache(cache)
	tree.EnableCoW()
	prev, release := tree.Publish()
	prevWant := maps.Clone(want)
	_, prevRefs := walk(t, prev)
	// unreleased: refs the last batch freed; limbo: released, not fenced.
	unreleased, limbo := map[storage.PageID]bool{}, map[storage.PageID]bool{}
	recycled := false
	store := tree.Pool().Store()
	for r := 0; r < rounds; r++ {
		for i := r * churn; i < (r+1)*churn; i++ {
			f0, _, _ := tree.PageGauges()
			if ok, err := tree.Delete(index.ObjectID(i), pts[i]); err != nil || !ok {
				t.Fatalf("round %d: delete %d: ok=%v err=%v", r, i, ok, err)
			}
			delete(want, index.ObjectID(i))
			f1, _, _ := tree.PageGauges()
			pages := store.NumPages()
			insert(n + i)
			f2, _, _ := tree.PageGauges()
			if store.NumPages() > pages && f2 > 0 {
				t.Fatalf("round %d: insert grew the store with %d free pages", r, f2)
			}
			recycled = recycled || f1 < f0 || f2 < f1
		}
		cur, rel := tree.Publish()
		if got, _ := walk(t, prev); !maps.EqualFunc(got, prevWant, geom.Point.Equal) {
			t.Fatalf("round %d: the previous snapshot changed under the writer", r)
		}
		got, curRefs := walk(t, cur)
		if !maps.EqualFunc(got, want, geom.Point.Equal) {
			t.Fatalf("round %d: the new snapshot is not the writer's state", r)
		}
		freed := map[storage.PageID]bool{}
		for ref := range prevRefs {
			if curRefs[ref] {
				continue
			}
			if _, ok := cache.Get(ref); !ok {
				t.Fatalf("round %d: ref %d lost its cache entry before its release", r, ref)
			}
			freed[ref] = true
		}
		for ref := range curRefs {
			if !prevRefs[ref] && (unreleased[ref] || limbo[ref]) {
				t.Fatalf("round %d: ref %d handed out again before its fence", r, ref)
			}
		}
		release() // the reader of the snapshot before prev is done
		for ref := range unreleased {
			if _, ok := cache.Get(ref); ok {
				t.Fatalf("round %d: ref %d still cached after its release", r, ref)
			}
			limbo[ref] = true
		}
		if err := tree.DrainReclaim(); err != nil {
			t.Fatal(err)
		}
		if r%3 == 2 {
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			clear(limbo)
		}
		prev, release, prevWant, prevRefs, unreleased = cur, rel, maps.Clone(want), curRefs, freed
	}
	if !recycled {
		t.Error("no operation ever took a page from the free list")
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("%d pinned frames at the end", got)
	}
}
