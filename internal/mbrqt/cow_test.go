package mbrqt

import (
	"maps"
	"math/rand"
	"testing"

	"allnn/internal/geom"
	"allnn/internal/index"
	"allnn/internal/storage"
)

// TestSnapshotIsolationUnderWrites runs the copy-on-write conformance
// over small buckets, so every batch splits and empties
// leaves.
func TestSnapshotIsolationUnderWrites(t *testing.T) {
	tree, err := New(newPool(256), unitSpace(2), Config{BucketCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	pts := uniformPoints(rand.New(rand.NewSource(9)), 120+24*16, 2, 1)
	snapshotIsolation(t, tree, pts, 120, 16, 24)
}

// TestRebuildFreeAfterReopen churns a tree of small records — dozens to
// a page, so most pages are partly dead at any time — and reopens it
// once, at its first checkpoint, which forgets the free list and how many
// records of each page had already drained. RebuildFree finds both again:
// the store must end no larger than beside a tree that was never
// reopened, where a forgotten death count alone leaves every page that
// was partly dead at the reopen in the file for good.
func TestRebuildFreeAfterReopen(t *testing.T) {
	const n, churn, rounds = 600, 24, 120
	pts := uniformPoints(rand.New(rand.NewSource(11)), n+rounds*churn, 2, 1)
	run := func(reopen bool) int {
		pool := newPool(1024)
		tree, err := New(pool, unitSpace(2), Config{BucketCapacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := tree.Insert(index.ObjectID(i), pts[i]); err != nil {
				t.Fatal(err)
			}
		}
		// A reader pins each snapshot until the writer has applied the
		// batch after the next one; before a checkpoint it lets go of all
		// but the newest.
		tree.Publish()
		prev, older := pin(t, tree), (*Snapshot)(nil)
		for r := 0; r < rounds; r++ {
			for i := r * churn; i < (r+1)*churn; i++ {
				if ok, err := tree.Delete(index.ObjectID(i), pts[i]); err != nil || !ok {
					t.Fatalf("round %d: delete %d: ok=%v err=%v", r, i, ok, err)
				}
				if err := tree.Insert(index.ObjectID(n+i), pts[n+i]); err != nil {
					t.Fatal(err)
				}
			}
			if older != nil {
				older.Release()
			}
			tree.Publish()
			older, prev = prev, pin(t, tree)
			if err := tree.DrainReclaim(); err != nil {
				t.Fatal(err)
			}
			if r%10 != 9 {
				continue
			}
			older.Release()
			older = nil
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			if reopen && r == 9 {
				prev.Release()
				if tree, err = Open(pool, tree.MetaPage()); err != nil {
					t.Fatal(err)
				}
				if err := tree.RebuildFree(); err != nil {
					t.Fatal(err)
				}
				tree.Publish()
				prev = pin(t, tree)
			}
		}
		if err := tree.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
		return pool.Store().NumPages()
	}
	stayed, reopened := run(false), run(true)
	t.Logf("store pages after %d rounds: %d never reopened, %d reopened after round 10", rounds, stayed, reopened)
	if reopened > stayed {
		t.Fatalf("the reopened tree's store grew to %d pages, the other's to %d", reopened, stayed)
	}
}

// pin acquires the newest published snapshot of tree.
func pin(t *testing.T, tree *Tree) *Snapshot {
	t.Helper()
	s, err := tree.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

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

// snapshotIsolation is the copy-on-write conformance of the tree.
// It loads pts[:n] into the empty tree, then commits rounds batches that
// each delete the churn oldest points and insert the next churn of pts,
// a reader pinning each snapshot until the writer has published the one
// after the next, and checkpointing every third round of the first and
// of the last quarter — in between, pages live and die young. It
// asserts that
//
//   - a snapshot reads exactly the state it froze while the writer moves
//     on, and the newest one reads the writer's;
//   - a ref the last checkpoint's image can reach — born before it, on a
//     page that was claimed before it — is never handed out again before
//     it was released, drained and fenced, also when the checkpoint that
//     made it old came while its release was still pending; a ref born
//     since the last checkpoint needs release and drain only, and such
//     refs do come back with no fence in between;
//   - an insert grows the store only once the free list is empty (and
//     pages do come back: the free list is used), and a claimed page is
//     never read from the store: the pool holds the whole tree here, so
//     Pool.Reads stays where it was (Discard panics on a pinned frame, so
//     every page that died was unpinned when it left the pool);
//   - a freed ref's node-cache entry survives until its release — old
//     readers re-populate it — and dies there.
func snapshotIsolation(t *testing.T, tree *Tree, pts []geom.Point, n, churn, rounds int) {
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
	tree.Publish()
	prev, older := pin(t, tree), (*Snapshot)(nil)
	prevWant := maps.Clone(want)
	_, prevRefs := walk(t, prev)
	// born: the round a live ref first showed up in (a record lands on a
	// page its own batch claimed, so the ref is as young as its page);
	// lastCkpt: the round of the last checkpoint. The refs of the first
	// snapshot are absent from born, round -1, and held to the rule of
	// the image's: no reuse before a fence.
	born, lastCkpt := map[storage.PageID]int{}, -1
	bornAt := func(ref storage.PageID) int {
		if r, ok := born[ref]; ok {
			return r
		}
		return -1
	}
	// unreleased: refs the last batch freed; limbo: old, released, not
	// fenced; loose: young when released and drained, reusable since.
	unreleased, limbo, loose := map[storage.PageID]bool{}, map[storage.PageID]bool{}, map[storage.PageID]bool{}
	recycled, youngReused, freedUnfenced := false, false, false
	store := tree.Pool().Store()
	reads := tree.Pool().Stats().Reads
	for r := 0; r < rounds; r++ {
		for i := r * churn; i < (r+1)*churn; i++ {
			f0, _, _, _ := tree.PageGauges()
			if ok, err := tree.Delete(index.ObjectID(i), pts[i]); err != nil || !ok {
				t.Fatalf("round %d: delete %d: ok=%v err=%v", r, i, ok, err)
			}
			delete(want, index.ObjectID(i))
			f1, _, _, _ := tree.PageGauges()
			pages := store.NumPages()
			insert(n + i)
			f2, _, _, _ := tree.PageGauges()
			if store.NumPages() > pages && f2 > 0 {
				t.Fatalf("round %d: insert grew the store with %d free pages", r, f2)
			}
			recycled = recycled || f1 < f0 || f2 < f1
		}
		tree.Publish()
		cur := pin(t, tree)
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
			if prevRefs[ref] {
				continue
			}
			if unreleased[ref] || limbo[ref] {
				t.Fatalf("round %d: ref %d (born in round %d, last checkpoint in %d) handed out again before its fence",
					r, ref, bornAt(ref), lastCkpt)
			}
			youngReused = youngReused || loose[ref]
			delete(loose, ref)
			born[ref] = r
		}
		if older != nil {
			older.Release() // the reader of the snapshot before prev is done
		}
		for ref := range unreleased {
			if _, ok := cache.Get(ref); ok {
				t.Fatalf("round %d: ref %d still cached after its release", r, ref)
			}
			if bornAt(ref) > lastCkpt {
				loose[ref] = true
			} else {
				limbo[ref] = true
			}
		}
		f0, _, _, _ := tree.PageGauges()
		if err := tree.DrainReclaim(); err != nil {
			t.Fatal(err)
		}
		f1, _, _, _ := tree.PageGauges()
		freedUnfenced = freedUnfenced || f1 > f0
		if r%3 == 2 && (r < rounds/4 || r >= rounds-rounds/4) {
			if err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			clear(limbo)
			clear(loose)
			lastCkpt = r
		}
		older, prev, prevWant, prevRefs, unreleased = prev, cur, maps.Clone(want), curRefs, freed
	}
	if !recycled {
		t.Error("no operation ever took a page from the free list")
	}
	if !freedUnfenced || !youngReused {
		t.Errorf("a page claimed since the last checkpoint must come back without a fence: "+
			"DrainReclaim freed one: %v; a young ref was handed out again: %v", freedUnfenced, youngReused)
	}
	if got := tree.Pool().Stats().Reads; got != reads {
		t.Errorf("%d pages read from the store; claiming a free page must read none", got-reads)
	}
	if err := tree.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Pool().PinnedFrames(); got != 0 {
		t.Fatalf("%d pinned frames at the end", got)
	}
}
